package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Record is one line of the -trace file: a closed span, or a point event in
// traces written by older builds. Times are microseconds since the Unix
// epoch; attribute maps serialize with sorted keys, so a JSONL trace is
// deterministic given a deterministic clock.
//
// Parent is the span id of the causal parent (0 for roots and events): the
// span that was in progress, one level up, when this one started. A trace
// with parents is a forest, and a reader (internal/obs/traceview) can
// reconstruct per-request waterfalls from it. The field is omitted when
// zero, so traces written by older builds parse identically.
type Record struct {
	Type    string         `json:"type"` // "span" | "event"
	Name    string         `json:"name"`
	Span    uint64         `json:"span,omitempty"`   // span id; 0 for events
	Parent  uint64         `json:"parent,omitempty"` // parent span id; 0 for roots
	StartUS int64          `json:"start_us"`
	DurUS   int64          `json:"dur_us,omitempty"`
	Attrs   map[string]any `json:"attrs,omitempty"`
}

// Tracer produces spans into the process's outputs: the ring (begin marks,
// closed spans and point events) and the -trace JSONL sink (closed spans
// only). With neither installed, Start returns the inert zero Span after
// one atomic load. The clock is injectable for deterministic tests; it is
// held behind an atomic pointer so hot traced paths never contend on a
// lock.
type Tracer struct {
	mu    sync.Mutex // serializes output swaps
	out   atomic.Pointer[outputs]
	seq   atomic.Uint64
	clock atomic.Pointer[clockBox]
}

type outputs struct {
	ring *Ring
	sink *JSONLSink
}

type clockBox struct{ now func() time.Time }

func newTracer() *Tracer {
	t := &Tracer{}
	t.clock.Store(&clockBox{now: time.Now})
	return t
}

// swap replaces one output, leaving the other as it is.
func (t *Tracer) swap(set func(*outputs)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var o outputs
	if cur := t.out.Load(); cur != nil {
		o = *cur
	}
	set(&o)
	if o.ring == nil && o.sink == nil {
		t.out.Store(nil)
		return
	}
	t.out.Store(&o)
}

// SetNow injects a clock (tests); nil restores time.Now.
func (t *Tracer) SetNow(now func() time.Time) {
	if now == nil {
		now = time.Now
	}
	t.clock.Store(&clockBox{now: now})
}

// Now reads the tracer's clock — time.Now unless a test injected one via
// SetNow. Pipeline code measuring durations that end up in span payloads
// (the engine's question delay) must read this clock, not time.Now, so an
// injected clock makes the whole trace byte-deterministic.
func (t *Tracer) Now() time.Time { return t.clock.Load().now() }

// ResetSeq restarts span-id allocation at 1 — only for tests that compare
// whole traces byte-for-byte across repeated runs on the same tracer.
func (t *Tracer) ResetSeq() { t.seq.Store(0) }

// Span is an in-progress operation: the event it will record when it
// closes, with the payload known so far. The zero Span (from a tracer with
// no outputs) is inert; End on it is a no-op.
type Span struct {
	tr *Tracer
	ev Event
}

// start opens a span of kind k under parent (0 for a root) with a note and
// the leading payload slots. While the span is open the ring holds its
// begin mark, so a bundle captured mid-operation shows it. The disabled
// path is one atomic load and allocation-free.
func (t *Tracer) start(k Kind, parent uint64, note string, vals ...int) Span {
	o := t.out.Load()
	if o == nil {
		return Span{}
	}
	s := Span{tr: t, ev: Event{Kind: k, Span: t.seq.Add(1), Parent: parent, StartUS: t.Now().UnixMicro(), Note: note}}
	s.ev.add(vals)
	if o.ring != nil {
		mark := s.ev
		mark.Open = true
		o.ring.record(&mark)
	}
	return s
}

// Child opens a span whose parent is s. On an inert span it returns the
// inert zero Span without touching the tracer, so a disabled call tree
// stays allocation-free all the way down.
func (s Span) Child(k Kind, vals ...int) Span {
	if s.tr == nil {
		return Span{}
	}
	return s.tr.start(k, s.ev.Span, "", vals...)
}

// ID returns the span id (0 for an inert span) — what callees use as the
// parent of spans they open on this span's behalf.
func (s Span) ID() uint64 { return s.ev.Span }

// End closes the span, filling the payload slots after those given at
// start, and records its event once: into the ring and the -trace sink.
func (s Span) End(vals ...int) { s.EndNote("", vals...) }

// EndNote is End that also sets the span's note when note is non-empty.
func (s Span) EndNote(note string, vals ...int) {
	if s.tr == nil {
		return
	}
	o := s.tr.out.Load()
	if o == nil {
		return
	}
	e := s.ev
	e.add(vals)
	if note != "" {
		e.Note = note
	}
	e.DurUS = s.tr.Now().UnixMicro() - e.StartUS
	if o.ring != nil {
		o.ring.record(&e)
	}
	if o.sink != nil {
		o.sink.Write(e)
	}
}

// point records a point event into the ring, if one is installed. It reads
// the ring's own clock, never the injected tracer clock: point events fire
// on worker goroutines, and reading a stepping test clock there would make
// the span timestamps depend on scheduling.
func (t *Tracer) point(k Kind, note string, vals []int) {
	o := t.out.Load()
	if o == nil || o.ring == nil {
		return
	}
	e := Event{Kind: k, StartUS: o.ring.nowUS(), Note: note}
	e.add(vals)
	o.ring.record(&e)
}

// JSONLSink writes one JSON object per closed span to an io.Writer (the
// -trace file format). Records are buffered (a busy trace writes thousands
// of sub-100-byte lines; one syscall each would dominate the sink), so
// owners must call Flush before reading or closing the underlying writer —
// the CLIs do so through obs.SetupCLI's flush function. Writes are
// serialized; the first write error is retained and reported by Err, after
// which further records are dropped.
type JSONLSink struct {
	mu  sync.Mutex
	buf *bufio.Writer
	enc *json.Encoder
	err error
}

// NewJSONLSink returns a sink encoding records onto w through a buffer.
func NewJSONLSink(w io.Writer) *JSONLSink {
	buf := bufio.NewWriterSize(w, 64<<10)
	return &JSONLSink{buf: buf, enc: json.NewEncoder(buf)}
}

// Write encodes the event as one JSON line.
func (s *JSONLSink) Write(e Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	s.err = s.enc.Encode(e.Record())
}

// Flush forces buffered records onto the underlying writer and returns the
// first error the sink has seen (encoding, buffered writes, or the flush
// itself). Call it before closing the file the sink writes to.
func (s *JSONLSink) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.buf.Flush(); err != nil && s.err == nil {
		s.err = err
	}
	return s.err
}

// Err returns the first write error, if any.
func (s *JSONLSink) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Ring is the fixed-size event ring buffer: the one in-memory record of
// recent operations behind debug bundles, /tracez and kbbench's trace
// section. Appends are a short critical section — stamp, copy into a
// pre-allocated slot, advance — guarded by a mutex so concurrent writers
// (point events fire from worker goroutines) and a concurrent bundle dump
// always see whole events. No allocation happens after construction.
type Ring struct {
	base time.Time

	mu   sync.Mutex
	buf  []Event
	next int
	full bool
	seq  uint64
}

// DefaultRingCapacity is the ring size used when none is given: enough to
// hold the recent history of a long interactive session (hundreds of
// questions, each a handful of events) in about a megabyte.
const DefaultRingCapacity = 8192

func newRing(capacity int, base time.Time) *Ring {
	if capacity <= 0 {
		capacity = DefaultRingCapacity
	}
	return &Ring{base: base, buf: make([]Event, capacity)}
}

// nowUS reads the wall clock in Unix microseconds through the monotonic
// offset from the ring's base — one clock read instead of time.Now's two.
func (r *Ring) nowUS() int64 {
	return r.base.UnixMicro() + time.Since(r.base).Microseconds()
}

// record stamps and appends one event.
func (r *Ring) record(e *Event) {
	r.mu.Lock()
	r.seq++
	r.buf[r.next] = *e
	r.buf[r.next].Seq = r.seq
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
	r.mu.Unlock()
}

// Events returns a copy of the retained events, oldest first.
func (r *Ring) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.full {
		return append([]Event(nil), r.buf[:r.next]...)
	}
	out := make([]Event, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	return append(out, r.buf[:r.next]...)
}

// Total returns the number of events ever recorded (≥ len(Events()); the
// difference is what the ring evicted).
func (r *Ring) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seq
}

// Capacity returns the ring size.
func (r *Ring) Capacity() int { return len(r.buf) }

// BaseUS returns the wall-clock time, in Unix microseconds, the ring was
// first enabled — the origin of the t_us offsets in a bundle.
func (r *Ring) BaseUS() int64 { return r.base.UnixMicro() }

// EnableRing installs a fresh process-wide ring of the given capacity (<= 0
// uses DefaultRingCapacity) and returns it.
func EnableRing(capacity int) *Ring {
	r := newRing(capacity, time.Now())
	defaultTracer.swap(func(o *outputs) { o.ring = r })
	return r
}

// DisableRing removes the process-wide ring.
func DisableRing() { defaultTracer.swap(func(o *outputs) { o.ring = nil }) }

// CurrentRing returns the process-wide ring, or nil.
func CurrentRing() *Ring {
	if o := defaultTracer.out.Load(); o != nil {
		return o.ring
	}
	return nil
}

// ResizeRing replaces the process-wide ring with one of the given capacity
// (<= 0 uses DefaultRingCapacity), carrying over the retained events,
// sequence numbering and time base, so events recorded before the resize —
// flag parsing, KB load — stay in the dump. No-op when no ring is
// installed.
func ResizeRing(capacity int) {
	defaultTracer.swap(func(o *outputs) {
		if o.ring == nil {
			return
		}
		events := o.ring.Events()
		nw := newRing(capacity, o.ring.base)
		if drop := len(events) - len(nw.buf); drop > 0 {
			events = events[drop:]
		}
		copy(nw.buf, events)
		nw.next = len(events) % len(nw.buf)
		nw.full = len(events) == len(nw.buf)
		nw.seq = o.ring.Total()
		o.ring = nw
	})
}
