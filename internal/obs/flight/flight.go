// Package flight is the post-mortem layer of the observability stack: an
// always-on, fixed-size flight recorder of structured pipeline events, the
// debug-bundle dumper that captures the last moments of a run (events,
// metrics, goroutine stacks, build stamp, KB digest, inquiry journal), and
// the anomaly watchdogs that flag a stalling or pathological repair session
// while it is still running.
//
// Where internal/obs answers "how much, how fast" with counters and
// histograms, flight answers "what just happened": when a long interactive
// repair session stalls, loops or dies, the ring buffer holds the ordered
// tail of chase rounds, conflict scans, questions, answers and
// Π-repairability outcomes that led there.
//
// Design rules, continuing the obs contract:
//
//   - the disabled path is zero-alloc and lock-free: Record with no active
//     recorder is one atomic pointer load (BenchmarkFlightRecordDisabled
//     pins this down, the same guard pattern as BenchmarkSamplerDisabled);
//   - events are fixed-size values — a kind, four int64 payload slots and
//     one (pre-existing) string — so the enabled path allocates nothing
//     either: one short mutex-guarded copy into a pre-allocated slot;
//   - instrumented packages call Record unconditionally; nothing in the
//     pipeline ever formats, allocates or branches on behalf of the
//     recorder beyond that single load.
package flight

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Kind identifies what a flight event describes. The numeric payload slots
// N1..N4 and the Note string are interpreted per kind; kindSpecs names them
// for the JSONL dump, so bundles are self-describing.
type Kind uint8

const (
	kindInvalid Kind = iota
	// KindSessionStart opens an inquiry session: facts, naive conflicts,
	// total (chase-level) conflicts; Note is the strategy name.
	KindSessionStart
	// KindChaseRoundStart: round number and delta size (facts the round's
	// trigger collection is seeded with).
	KindChaseRoundStart
	// KindChaseRoundEnd: round number, facts derived this round, triggers
	// evaluated this round that were deferred across the round-start
	// snapshot boundary, and rule firings this round. Note is the exit
	// status — empty for a normally completed round, or one of the
	// RoundStatus* markers when the chase left the round early. Every
	// KindChaseRoundStart is balanced by exactly one KindChaseRoundEnd,
	// whatever path the chase exits through; kbdump timelines and
	// traceview waterfalls rely on the pairing.
	KindChaseRoundEnd
	// KindConflictScan summarizes one detection pass: CDDs scanned,
	// conflicts found, and whether the scan was chase-level (1) or naive (0).
	KindConflictScan
	// KindTrackerUpdate: the updated fact id, hyperedges removed, added.
	KindTrackerUpdate
	// KindQuestion: phase, fixes offered, conflicts remaining, and the
	// question-generation delay in microseconds.
	KindQuestion
	// KindAnswer: fact id and argument of the chosen fix, whether the value
	// is a labeled null (1) or a constant (0); Note is the value.
	KindAnswer
	// KindPiBatch summarizes one Π-repairability filtering batch: fast-path
	// hits, full Algorithm 1 checks, and fixes accepted.
	KindPiBatch
	// KindParDispatch: tasks fanned out and the worker-pool size; Note is
	// the call-site label ("core.pi", "conflict.scan", …).
	KindParDispatch
	// KindAnomaly is a watchdog detection; Note names the anomaly and
	// N1/N2 carry the observed value and the threshold it crossed.
	KindAnomaly
	// KindBundleDump marks a debug-bundle capture; Note is the reason, so a
	// later bundle shows earlier dumps in its own timeline.
	KindBundleDump
	// KindHomoSearch summarizes one homomorphism search: body atoms,
	// backtrack nodes visited, store index probes, matches enumerated.
	KindHomoSearch

	numKinds
)

// kindSpec names a kind and its payload slots for the JSONL rendering.
// Empty field names mean the slot is unused for that kind and is omitted.
type kindSpec struct {
	name   string
	fields [4]string
	note   string
}

var kindSpecs = [numKinds]kindSpec{
	KindSessionStart:    {"inquiry.session_start", [4]string{"facts", "naive_conflicts", "total_conflicts", ""}, "strategy"},
	KindChaseRoundStart: {"chase.round_start", [4]string{"round", "delta", "", ""}, ""},
	KindChaseRoundEnd:   {"chase.round_end", [4]string{"round", "derived", "deferred", "firings"}, "status"},
	KindConflictScan:    {"conflict.scan", [4]string{"cdds", "found", "chase_level", ""}, ""},
	KindTrackerUpdate:   {"conflict.tracker_update", [4]string{"fact", "removed", "added", ""}, ""},
	KindQuestion:        {"inquiry.question", [4]string{"phase", "fixes", "conflicts", "delay_us"}, ""},
	KindAnswer:          {"inquiry.answer", [4]string{"fact", "arg", "null", ""}, "value"},
	KindPiBatch:         {"core.pi_batch", [4]string{"fast_hits", "full_checks", "accepted", ""}, ""},
	KindParDispatch:     {"par.dispatch", [4]string{"tasks", "workers", "", ""}, "label"},
	KindAnomaly:         {"anomaly", [4]string{"value", "threshold", "", ""}, "anomaly"},
	KindBundleDump:      {"flight.bundle_dump", [4]string{"", "", "", ""}, "reason"},
	KindHomoSearch:      {"homo.search", [4]string{"body", "nodes", "probes", "matches"}, ""},
}

// String returns the dotted event name of the kind.
func (k Kind) String() string {
	if k < numKinds && kindSpecs[k].name != "" {
		return kindSpecs[k].name
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Event is one flight-recorder entry: a sequence number (total order over
// the whole run, so a dump shows how much history the ring evicted), a
// monotonic timestamp in microseconds since the recorder was enabled, the
// kind, and the kind-specific payload. The struct is all values — recording
// one is a plain copy.
type Event struct {
	Seq  uint64
	TUS  int64
	Kind Kind
	N1   int64
	N2   int64
	N3   int64
	N4   int64
	Note string
}

// appendJSON renders the event as one self-describing JSON object with the
// kind's field names. Dump-path only; the hot path never formats.
func (e Event) appendJSON(b *bytes.Buffer) {
	spec := kindSpecs[kindInvalid]
	if e.Kind < numKinds {
		spec = kindSpecs[e.Kind]
	}
	name := spec.name
	if name == "" {
		name = fmt.Sprintf("kind(%d)", uint8(e.Kind))
	}
	fmt.Fprintf(b, `{"seq":%d,"t_us":%d,"kind":%q`, e.Seq, e.TUS, name)
	ns := [4]int64{e.N1, e.N2, e.N3, e.N4}
	for i, f := range spec.fields {
		if f != "" {
			fmt.Fprintf(b, `,%q:%d`, f, ns[i])
		}
	}
	if spec.note != "" && e.Note != "" {
		// json.Marshal for the value: KB constants may hold characters
		// strconv.Quote would escape in non-JSON ways.
		v, err := json.Marshal(e.Note)
		if err == nil {
			fmt.Fprintf(b, `,%q:%s`, spec.note, v)
		}
	}
	b.WriteByte('}')
}

// JSON returns the event's JSONL line (without the trailing newline).
func (e Event) JSON() []byte {
	var b bytes.Buffer
	e.appendJSON(&b)
	return b.Bytes()
}

// Recorder is the fixed-size ring buffer. Appends are a short critical
// section — stamp, copy into a pre-allocated slot, advance — guarded by a
// mutex so concurrent writers (the par fan-outs dispatch from whatever
// goroutine drives them) and a concurrent bundle dump always see whole
// events. No allocation happens after construction.
type Recorder struct {
	start time.Time

	mu   sync.Mutex
	buf  []Event
	next int
	full bool
	seq  uint64
}

// DefaultCapacity is the ring size the CLIs enable by default: enough to
// hold the full recent history of a long interactive session (hundreds of
// questions, each a handful of events) at a few hundred KB of memory.
const DefaultCapacity = 8192

// NewRecorder returns a recorder retaining the last capacity events
// (minimum 1).
func NewRecorder(capacity int) *Recorder {
	if capacity < 1 {
		capacity = 1
	}
	return &Recorder{start: time.Now(), buf: make([]Event, capacity)}
}

// record stamps and appends one event.
func (r *Recorder) record(k Kind, n1, n2, n3, n4 int64, note string) {
	t := time.Since(r.start).Microseconds()
	r.mu.Lock()
	r.seq++
	r.buf[r.next] = Event{Seq: r.seq, TUS: t, Kind: k, N1: n1, N2: n2, N3: n3, N4: n4, Note: note}
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
	r.mu.Unlock()
}

// Events returns a copy of the retained events, oldest first.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.full {
		return append([]Event(nil), r.buf[:r.next]...)
	}
	out := make([]Event, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}

// Total returns the number of events ever recorded (≥ len(Events()); the
// difference is what the ring evicted).
func (r *Recorder) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seq
}

// Capacity returns the ring size.
func (r *Recorder) Capacity() int { return len(r.buf) }

// active is the process-wide recorder. The disabled path — no recorder —
// is one atomic load and must stay allocation-free: instrumented code calls
// Record unconditionally from hot loops.
var active atomic.Pointer[Recorder]

// Enable installs a fresh process-wide recorder of the given capacity
// (<= 0 uses DefaultCapacity) and returns it.
func Enable(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	r := NewRecorder(capacity)
	active.Store(r)
	return r
}

// Disable removes the process-wide recorder.
func Disable() { active.Store(nil) }

// MaxAutosizeCapacity bounds what AutosizeCapacity will pick: a ~1M-event
// ring is tens of MB, plenty of tail for the largest KBs the experiments
// load; anything bigger should be an explicit -flight-events choice.
const MaxAutosizeCapacity = 1 << 20

// AutosizeCapacity picks a ring capacity from the KB size: eight events per
// fact covers the event volume of a full repair session over the retained
// window (each question touches a handful of chase, scan and Π events),
// clamped to [DefaultCapacity, MaxAutosizeCapacity].
func AutosizeCapacity(facts int) int {
	c := facts * 8
	if c < DefaultCapacity {
		return DefaultCapacity
	}
	if c > MaxAutosizeCapacity {
		return MaxAutosizeCapacity
	}
	return c
}

// Resize replaces the process-wide recorder with one of the given capacity
// (<= 0 uses DefaultCapacity), carrying over the retained events, sequence
// numbering and time base, so events recorded before the resize — flag
// parsing, KB load — keep their timestamps and stay in the dump. No-op
// when no recorder is installed.
func Resize(capacity int) {
	r := active.Load()
	if r == nil {
		return
	}
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	events := r.Events()
	if drop := len(events) - capacity; drop > 0 {
		events = events[drop:]
	}
	nw := &Recorder{start: r.start, buf: make([]Event, capacity)}
	copy(nw.buf, events)
	nw.next = len(events)
	if nw.next == capacity {
		nw.next = 0
		nw.full = true
	}
	nw.seq = r.Total()
	active.Store(nw)
}

// Active reports whether a process-wide recorder is installed.
func Active() bool { return active.Load() != nil }

// Current returns the process-wide recorder, or nil.
func Current() *Recorder { return active.Load() }

// Record appends a numeric-payload event to the process-wide recorder, if
// one is installed. The disabled path is a single atomic load, no
// allocation; callers pass zeros for unused slots.
func Record(k Kind, n1, n2, n3, n4 int64) {
	if r := active.Load(); r != nil {
		r.record(k, n1, n2, n3, n4, "")
	}
}

// RecordNote is Record with a string payload. Callers must pass an
// already-materialized string (never format one for the call), so the
// disabled path stays allocation-free.
func RecordNote(k Kind, n1, n2, n3 int64, note string) {
	if r := active.Load(); r != nil {
		r.record(k, n1, n2, n3, 0, note)
	}
}

// RecordNote4 is RecordNote with all four numeric slots — for kinds like
// KindChaseRoundEnd whose payload uses every slot alongside the note. The
// same pre-materialized-string rule applies.
func RecordNote4(k Kind, n1, n2, n3, n4 int64, note string) {
	if r := active.Load(); r != nil {
		r.record(k, n1, n2, n3, n4, note)
	}
}

// Exit-status markers for KindChaseRoundEnd's note slot. Constants so the
// chase's record calls never allocate a string.
const (
	// RoundStatusAborted: the ⊥ optimization derived the abort predicate
	// and stopped the chase inside this round — expected early exit.
	RoundStatusAborted = "aborted"
	// RoundStatusBudget: the round or derivation budget was exceeded.
	RoundStatusBudget = "budget"
	// RoundStatusError: a firing failed; the chase returned an error.
	RoundStatusError = "error"
)
