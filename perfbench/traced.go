package main

import (
	"fmt"
	"io"
	"time"

	"kbrepair/internal/par"
)

// unattributedTolerance bounds the share of a traced pass's wall time that
// no layer span covers: the replayer's own glue, the simulated user and the
// gaps between spans. A pass above it fails, since its layer split would
// not account for the time it measured.
const unattributedTolerance = 0.02

// tracedPass is one round of sessions replayed with spans.
type tracedPass struct {
	workers      int
	tr           *tracer
	n            counts
	self         map[string]time.Duration
	wall         time.Duration // measured around the pass, not from spans
	unattributed time.Duration
}

// tracedRun runs the panel once untraced, in panel order, then replays it
// traced at one worker and at the default worker count until seconds have
// passed, and derives the per-layer metrics from the default-count passes.
func tracedRun(w workload, text string, seconds float64, spansPath string, stdout, stderr io.Writer) (result, []string) {
	sessions := w.sessions()
	res := result{Metrics: map[string]metric{}}
	ref := make([]string, len(sessions))
	var untraced time.Duration
	for j, s := range sessions {
		res.Attempted++
		o, err := runSession(text, s)
		if err != nil {
			res.Failed++
			fmt.Fprintf(stderr, "perfbench: untraced session %d (%s, seed %d): %v\n", j+1, s.strategy, s.seed, err)
			continue
		}
		ref[j] = transcript(o.log)
		untraced += o.setup + o.wall
	}
	if res.Failed > 0 {
		return res, ref
	}

	nproc := par.Workers()
	workerCounts := []int{1}
	if nproc > 1 {
		workerCounts = append(workerCounts, nproc)
	}
	defer par.SetWorkers(0)
	var passes []tracedPass
	start := time.Now()
	for len(passes) == 0 || time.Since(start).Seconds() < seconds {
		for _, wk := range workerCounts {
			par.SetWorkers(wk)
			res.Attempted += len(sessions)
			p, err := runTracedPass(text, sessions, ref, wk)
			if err != nil {
				res.Failed += len(sessions)
				fmt.Fprintf(stderr, "perfbench: traced pass at %d workers: %v\n", wk, err)
				return res, ref
			}
			passes = append(passes, p)
		}
	}
	if err := writeSpans(spansPath, passes); err != nil {
		fmt.Fprintf(stderr, "perfbench: writing spans: %v\n", err)
		res.Failed++
		return res, ref
	}

	base, full := meanPass(passes, 1), meanPass(passes, nproc)
	last := passes[len(passes)-1]
	res.Metrics = layerMetrics(full, base, last.n, untraced)
	res.Correct = true
	fmt.Fprintf(stdout, "traced passes %d (workers 1 and %d, %d sessions each), dialogues match the untraced run; spans in %s\n",
		len(passes), nproc, len(sessions), spansPath)
	fmt.Fprintf(stdout, "books: wall %.4fs = layers %.4fs + unattributed %.4fs (%.2f%%, tolerance %.0f%%)\n",
		full.wall, full.wall-full.unattributed, full.unattributed, 100*full.unattributed/full.wall, 100*unattributedTolerance)
	printMetrics(stdout, res.Metrics, layerMetricNames())
	return res, ref
}

// runTracedPass replays one round through the replayer and checks every
// dialogue against the untraced run's and the layer books against the
// measured wall.
func runTracedPass(text string, sessions []session, ref []string, workers int) (tracedPass, error) {
	p := tracedPass{workers: workers, tr: newTracer()}
	logs := make([][]exchange, len(sessions))
	t0 := time.Now()
	for j, s := range sessions {
		p.tr.session = j
		log, err := replaySession(p.tr, text, s, &p.n)
		if err != nil {
			return p, fmt.Errorf("session %d (%s, seed %d): %w", j+1, s.strategy, s.seed, err)
		}
		logs[j] = log
	}
	p.wall = time.Since(t0)
	for j, log := range logs {
		if t := transcript(log); t != ref[j] {
			return p, fmt.Errorf("session %d (%s): traced dialogue differs from the untraced run (%s)",
				j+1, sessions[j].strategy, firstDifference(ref[j], t))
		}
	}
	self, spanWall, err := p.tr.selfTimes()
	if err != nil {
		return p, err
	}
	if spanWall > p.wall {
		return p, fmt.Errorf("spans cover %v of a %v pass", spanWall, p.wall)
	}
	p.self = self
	p.unattributed = p.wall
	for _, l := range layers {
		p.unattributed -= self[l]
	}
	if share := float64(p.unattributed) / float64(p.wall); share > unattributedTolerance {
		return p, fmt.Errorf("%.2f%% of the traced wall is outside every layer (tolerance %.0f%%)",
			100*share, 100*unattributedTolerance)
	}
	return p, nil
}

// passMeans is the mean over passes at one worker count, in seconds.
type passMeans struct {
	layer        map[string]float64
	wall         float64
	unattributed float64
}

func meanPass(passes []tracedPass, workers int) passMeans {
	m := passMeans{layer: make(map[string]float64)}
	n := 0
	for _, p := range passes {
		if p.workers != workers {
			continue
		}
		n++
		for _, l := range layers {
			m.layer[l] += p.self[l].Seconds()
		}
		m.wall += p.wall.Seconds()
		m.unattributed += p.unattributed.Seconds()
	}
	for l := range m.layer {
		m.layer[l] /= float64(n)
	}
	m.wall /= float64(n)
	m.unattributed /= float64(n)
	return m
}

// layerMetrics derives the per-layer metrics of one round: times at the
// default worker count, counts from a pass, speed-ups against one worker.
func layerMetrics(full, base passMeans, n counts, untraced time.Duration) map[string]metric {
	m := make(map[string]metric)
	for _, l := range layers {
		m[l+"_s"] = metric{full.layer[l], "s"}
		m["par.speedup."+l] = metric{ratio(base.layer[l], full.layer[l]), "ratio"}
	}
	m["conflict.initial_conflicts"] = metric{float64(n.initialConflicts), "count"}
	m["conflict.all_calls"] = metric{float64(n.allCalls), "count"}
	m["chase.rounds"] = metric{float64(n.chaseRounds), "count"}
	m["chase.derived_facts"] = metric{float64(n.derivedFacts), "count"}
	m["core.candidates"] = metric{float64(n.candidates), "count"}
	m["core.pi_fast_hits"] = metric{float64(n.fastHits), "count"}
	m["core.pi_full_checks"] = metric{float64(n.fullChecks), "count"}
	m["core.pi_accept_share"] = metric{ratio(float64(n.accepted), float64(n.candidates)), "ratio"}
	m["core.pi_ms_per_full_check"] = metric{ratio(1000*full.layer["core.pi_check"], float64(n.fullChecks)), "ms"}
	m["conflict.tracker_updates"] = metric{float64(n.trackerUpdates), "count"}
	m["bench.unattributed_s"] = metric{full.unattributed, "s"}
	m["trace.overhead_share"] = metric{full.wall/untraced.Seconds() - 1, "ratio"}
	return m
}

// ratio is a/b, or 0 when nothing was measured (b = 0), so that the result
// stays encodable as JSON.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetricNames lists the per-layer metrics in print order.
func layerMetricNames() []string {
	names := []string{
		"parser.parse_s", "inquiry.new_s",
		"conflict.tracker_init_s", "conflict.initial_conflicts",
		"conflict.all_s", "conflict.all_calls", "chase.rounds", "chase.derived_facts",
		"inquiry.pick_s", "inquiry.positions_s", "core.fixgen_s", "core.candidates",
		"core.pi_check_s", "core.pi_fast_hits", "core.pi_full_checks",
		"core.pi_accept_share", "core.pi_ms_per_full_check",
		"store.set_value_s", "conflict.tracker_update_s", "conflict.tracker_updates",
		"inquiry.after_answer_s", "chase.final_check_s",
		"bench.unattributed_s", "trace.overhead_share",
	}
	for _, l := range layers {
		names = append(names, "par.speedup."+l)
	}
	return names
}
