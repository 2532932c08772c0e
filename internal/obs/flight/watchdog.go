package flight

import (
	"sort"
	"sync"
	"time"

	"kbrepair/internal/obs"
)

// Anomaly watchdogs: small online detectors fed from the inquiry engine and
// the chase loop that flag a session going wrong while it is still running.
// Each detection records an anomaly point event (so the bundle timeline
// shows *when* it happened, between which questions) and bumps a
// kbrepair_anomaly_* gauge (so a dashboard alert fires on it). Gauges hold
// the number of detections in the current session and reset at
// SessionBegin.
//
// Detectors are deliberately cheap — one mutex-guarded update per question
// or chase round, nothing on the per-trigger hot path — so they are always
// on, independent of the event ring.

// Anomaly names, used as the note of anomaly events and (prefixed,
// dots-to-underscores) as the gauge names: kbrepair_anomaly_no_progress,
// kbrepair_anomaly_chase_round_overrun, kbrepair_anomaly_question_latency_spike.
const (
	AnomalyNoProgress   = "no_progress"
	AnomalyChaseOverrun = "chase_round_overrun"
	AnomalyLatencySpike = "question_latency_spike"
)

var (
	gNoProgress   = obs.NewGauge("anomaly.no_progress")
	gChaseOverrun = obs.NewGauge("anomaly.chase_round_overrun")
	gLatencySpike = obs.NewGauge("anomaly.question_latency_spike")
)

// Watchdog tuning. The defaults are deliberately conservative — an anomaly
// should mean "look at this session", not background noise.
const (
	// NoProgressK is how many consecutive questions may pass without the
	// conflicts-remaining count making a new minimum before the no-progress
	// anomaly fires. Per Theorem 4.6 every answered question strictly
	// shrinks the live conflict set or releases propagated pins, so a
	// genuine plateau this long means the session is spinning.
	NoProgressK = 5
	// SpikeFactor is the question-latency threshold: the session's p99
	// delay exceeding SpikeFactor × the session median flags a spike.
	SpikeFactor = 8.0
	// SpikeMinSamples is the minimum questions before the latency detector
	// arms — medians over a handful of samples are noise.
	SpikeMinSamples = 16
	// SpikeFloor is the minimum p99 (seconds) for a spike: sub-millisecond
	// delays are dominated by scheduler jitter regardless of ratio.
	SpikeFloor = 1e-3
	// ChaseOverrunFraction is how much of the round budget a single chase
	// run may consume before the overrun anomaly fires. On a weakly-acyclic
	// rule set round counts are small; approaching the safety budget means
	// the rule set (or the budget) is wrong.
	ChaseOverrunFraction = 0.8
)

// watchdog is the process-wide detector state, reset per inquiry session.
type watchdog struct {
	mu sync.Mutex

	phase        int
	minConflicts int
	stalled      int

	delays []float64 // sorted ascending
	spiked bool

	lastChaseRound int
	chaseFlagged   bool
}

var wd watchdog

// SessionBegin resets the watchdogs and zeroes the anomaly gauges for a
// fresh inquiry session.
func SessionBegin() {
	wd.mu.Lock()
	defer wd.mu.Unlock()
	wd.phase = 0
	wd.minConflicts = -1
	wd.stalled = 0
	wd.delays = wd.delays[:0]
	wd.spiked = false
	wd.lastChaseRound = 0
	wd.chaseFlagged = false
	gNoProgress.Set(0)
	gChaseOverrun.Set(0)
	gLatencySpike.Set(0)
}

// ObserveQuestion feeds the per-question detectors: the conflicts remaining
// when the question was generated and the question-generation delay.
// Called once per question by the inquiry engine.
func ObserveQuestion(phase, conflictsRemaining int, delay time.Duration) {
	wd.mu.Lock()
	defer wd.mu.Unlock()

	// No-progress: the conflicts-remaining series must keep making new
	// minima. The minimum resets on phase transitions — moving from naive
	// to chase-discovered conflicts legitimately grows the set.
	if phase != wd.phase {
		wd.phase = phase
		wd.minConflicts = -1
		wd.stalled = 0
	}
	if wd.minConflicts < 0 || conflictsRemaining < wd.minConflicts {
		wd.minConflicts = conflictsRemaining
		wd.stalled = 0
	} else {
		wd.stalled++
		if wd.stalled >= NoProgressK {
			gNoProgress.Add(1)
			obs.Point(obs.KindAnomaly, AnomalyNoProgress, conflictsRemaining, wd.minConflicts)
			wd.stalled = 0 // re-arm: a persistent stall fires every K questions
		}
	}

	// Latency spike: session p99 vs session median, edge-triggered so one
	// pathological phase yields one anomaly, not one per question.
	d := delay.Seconds()
	i := sort.SearchFloat64s(wd.delays, d)
	wd.delays = append(wd.delays, 0)
	copy(wd.delays[i+1:], wd.delays[i:])
	wd.delays[i] = d
	if n := len(wd.delays); n >= SpikeMinSamples {
		median := wd.delays[n/2]
		p99 := wd.delays[(n*99)/100]
		if p99 >= SpikeFloor && p99 > SpikeFactor*median {
			if !wd.spiked {
				wd.spiked = true
				gLatencySpike.Add(1)
				obs.Point(obs.KindAnomaly, AnomalyLatencySpike, int(p99*1e6), int(SpikeFactor*median*1e6))
			}
		} else {
			wd.spiked = false
		}
	}
}

// ObserveChaseRound feeds the round-budget detector; called once per chase
// round with the current round number and the run's round budget. A round
// number not above the last seen one means a new run started.
func ObserveChaseRound(round, maxRounds int) {
	wd.mu.Lock()
	defer wd.mu.Unlock()
	if round <= wd.lastChaseRound {
		wd.chaseFlagged = false
	}
	wd.lastChaseRound = round
	if wd.chaseFlagged || maxRounds <= 0 {
		return
	}
	if float64(round) >= ChaseOverrunFraction*float64(maxRounds) {
		wd.chaseFlagged = true
		gChaseOverrun.Add(1)
		obs.Point(obs.KindAnomaly, AnomalyChaseOverrun, round, maxRounds)
	}
}
