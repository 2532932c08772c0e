package obs

import (
	"encoding/json"
	"fmt"
	"strconv"
)

// Kind identifies what an Event describes: an instrumented operation (a
// span) or a point event. The kind table names each kind and its payload
// slots, so the -trace file, the debug bundle's events.jsonl and every
// reader of the ring share one vocabulary.
type Kind uint8

const (
	kindInvalid Kind = iota

	// Spans — recorded once when they close; a begin mark is also kept in
	// the ring while they are open.

	// KindInquiryRun is one inquiry session. Note: the strategy name.
	KindInquiryRun
	// KindInquiryInit is the session's initial conflict detection.
	KindInquiryInit
	// KindQuestion is one question, from conflict pick to post-answer
	// maintenance; delay_us is the engine's question-generation delay.
	KindQuestion
	// KindPickConflict is the strategy's conflict choice.
	KindPickConflict
	// KindSoundQuestion is position selection plus SOUNDQUESTION.
	KindSoundQuestion
	// KindUserAnswer is the time the user holds a question; its fields
	// describe the question pending while the span is open.
	KindUserAnswer
	// KindFinalCheck is the closing consistency check of a session.
	KindFinalCheck
	// KindChaseRun is one chase to fixpoint.
	KindChaseRun
	// KindChaseRound is one chase round. Note: the exit status — empty
	// for a completed round, else one of the chase's RoundStatus markers.
	KindChaseRound
	// KindConflictScan is one conflict-detection pass, naive or over the
	// chase.
	KindConflictScan
	// KindTrackerUpdate is one incremental conflict re-sync after an
	// answer changed a fact.
	KindTrackerUpdate
	// KindPiBatch is one Π-repairability filtering batch.
	KindPiBatch

	// Point events — ring only.

	// KindAnswer is a chosen fix. Note: the new value.
	KindAnswer
	// KindParDispatch is a true fan-out over the worker pool. Note: the
	// call-site label.
	KindParDispatch
	// KindHomoSearch summarizes one homomorphism search.
	KindHomoSearch
	// KindAnomaly is a watchdog detection. Note: the anomaly name.
	KindAnomaly
	// KindBundleDump marks a debug-bundle capture. Note: the reason.
	KindBundleDump

	numKinds
)

// MaxFields is the number of int64 payload slots an Event carries — enough
// for the widest kind, inquiry.question.
const MaxFields = 5

// kindSpec names a kind, its payload slots in order, and its note. Bit i of
// bools marks slot i as a flag, rendered as a JSON boolean.
type kindSpec struct {
	name   string
	fields []string
	bools  uint8
	note   string
}

var kinds = [numKinds]kindSpec{
	KindInquiryRun:    {name: "inquiry.run", fields: []string{"facts", "questions", "consistent"}, bools: 1 << 2, note: "strategy"},
	KindInquiryInit:   {name: "inquiry.init", fields: []string{"naive", "total"}},
	KindQuestion:      {name: "inquiry.question", fields: []string{"q", "phase", "conflicts", "fixes", "delay_us"}},
	KindPickConflict:  {name: "inquiry.pick_conflict"},
	KindSoundQuestion: {name: "inquiry.sound_question", fields: []string{"positions", "fixes"}},
	KindUserAnswer:    {name: "inquiry.user_answer", fields: []string{"fixes", "delay_us"}},
	KindFinalCheck:    {name: "inquiry.final_check", fields: []string{"consistent"}, bools: 1 << 0},
	KindChaseRun:      {name: "chase.run", fields: []string{"base_facts", "tgds", "rounds", "derived"}},
	KindChaseRound:    {name: "chase.round", fields: []string{"round", "delta", "derived", "deferred", "firings"}, note: "status"},
	KindConflictScan:  {name: "conflict.scan", fields: []string{"cdds", "naive", "conflicts"}, bools: 1 << 1},
	KindTrackerUpdate: {name: "conflict.tracker_update", fields: []string{"fact", "removed", "added"}},
	KindPiBatch:       {name: "core.pi_batch", fields: []string{"batch", "fast_hits", "full_checks", "accepted"}},
	KindAnswer:        {name: "inquiry.answer", fields: []string{"fact", "arg", "null"}, note: "value"},
	KindParDispatch:   {name: "par.dispatch", fields: []string{"tasks", "workers"}, note: "label"},
	KindHomoSearch:    {name: "homo.search", fields: []string{"body", "nodes", "probes", "matches"}},
	KindAnomaly:       {name: "anomaly", fields: []string{"value", "threshold"}, note: "anomaly"},
	KindBundleDump:    {name: "flight.bundle_dump", note: "reason"},
}

func (k Kind) spec() kindSpec {
	if k < numKinds {
		return kinds[k]
	}
	return kindSpec{}
}

// String returns the dotted name of the kind.
func (k Kind) String() string {
	if s := k.spec(); s.name != "" {
		return s.name
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Bit converts a flag to a payload value: 1 for true, 0 for false.
func Bit(b bool) int {
	if b {
		return 1
	}
	return 0
}

// Event is one entry of the ring: a span's begin mark (Open), a closed span
// (Span set, DurUS its duration), or a point event (Span 0). Span events
// carry the tracer clock's timestamps, point events the wall clock's. N
// holds the kind's payload slots, of which the first Set are filled. The
// struct is all values, so recording one is a plain copy.
type Event struct {
	Seq     uint64
	Kind    Kind
	Open    bool
	Set     uint8
	Span    uint64
	Parent  uint64
	StartUS int64
	DurUS   int64
	N       [MaxFields]int64
	Note    string
}

// add fills the next unset payload slots with vals; values beyond the last
// slot are dropped.
func (e *Event) add(vals []int) {
	for _, v := range vals {
		if int(e.Set) == MaxFields {
			return
		}
		e.N[e.Set] = int64(v)
		e.Set++
	}
}

// forEach visits the set payload slots and the note with their names.
func (e Event) forEach(visit func(name string, v any)) {
	spec := e.Kind.spec()
	for i, f := range spec.fields {
		if i >= int(e.Set) {
			break
		}
		if spec.bools&(1<<i) != 0 {
			visit(f, e.N[i] != 0)
		} else {
			visit(f, e.N[i])
		}
	}
	if spec.note != "" && e.Note != "" {
		visit(spec.note, e.Note)
	}
}

// Record renders a closed span in the -trace file's JSON shape, with
// attribute names from the kind table.
func (e Event) Record() Record {
	r := Record{Type: "span", Name: e.Kind.String(), Span: e.Span, Parent: e.Parent, StartUS: e.StartUS, DurUS: e.DurUS}
	e.forEach(func(name string, v any) {
		if r.Attrs == nil {
			r.Attrs = make(map[string]any, MaxFields+1)
		}
		r.Attrs[name] = v
	})
	return r
}

// SpanRecords returns the closed spans among evs as trace records, in ring
// order — what the trace readers (/tracez, the bundle digest, kbbench's
// trace section) decompose into waterfalls.
func SpanRecords(evs []Event) []Record {
	var out []Record
	for _, e := range evs {
		if e.Span != 0 && !e.Open {
			out = append(out, e.Record())
		}
	}
	return out
}

// AppendJSON appends the event as one self-describing events.jsonl line
// (without the newline). t_us is microseconds since baseUS: a begin mark's
// or point's time, or a closed span's end. Begin marks carry "open":true,
// closed spans their dur_us.
func (e Event) AppendJSON(b []byte, baseUS int64) []byte {
	t := e.StartUS - baseUS
	if e.Span != 0 && !e.Open {
		t += e.DurUS
	}
	b = append(b, `{"seq":`...)
	b = strconv.AppendUint(b, e.Seq, 10)
	b = append(b, `,"t_us":`...)
	b = strconv.AppendInt(b, t, 10)
	b = append(b, `,"kind":`...)
	b = strconv.AppendQuote(b, e.Kind.String())
	if e.Span != 0 {
		b = append(b, `,"span":`...)
		b = strconv.AppendUint(b, e.Span, 10)
		if e.Parent != 0 {
			b = append(b, `,"parent":`...)
			b = strconv.AppendUint(b, e.Parent, 10)
		}
		if e.Open {
			b = append(b, `,"open":true`...)
		} else {
			b = append(b, `,"dur_us":`...)
			b = strconv.AppendInt(b, e.DurUS, 10)
		}
	}
	e.forEach(func(name string, v any) {
		b = append(b, ',')
		b = strconv.AppendQuote(b, name)
		b = append(b, ':')
		switch v := v.(type) {
		case int64:
			b = strconv.AppendInt(b, v, 10)
		case bool:
			b = strconv.AppendBool(b, v)
		case string:
			// json.Marshal, not strconv.Quote: KB constants may hold
			// characters strconv would escape in non-JSON ways.
			q, _ := json.Marshal(v)
			b = append(b, q...)
		}
	})
	return append(b, '}')
}
