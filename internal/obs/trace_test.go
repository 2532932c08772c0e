package obs

import (
	"bytes"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// fixedClock steps 1ms per reading, giving deterministic timestamps.
func fixedClock() func() time.Time {
	t := time.UnixMicro(1_700_000_000_000_000).UTC()
	return func() time.Time {
		t = t.Add(time.Millisecond)
		return t
	}
}

// testTracer returns a private tracer writing to the given outputs, so a
// test never touches the process-wide ring.
func testTracer(ring *Ring, sink *JSONLSink) *Tracer {
	tr := newTracer()
	tr.swap(func(o *outputs) { o.ring, o.sink = ring, sink })
	return tr
}

// TestJSONLSinkGolden pins the -trace line schema: a span is written once,
// when it closes (so lines come in completion order), with the payload
// slots set at start and at end named by the kind table, and its note. A
// root span omits the parent field, so traces without causal structure
// keep the pre-parent format.
func TestJSONLSinkGolden(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	tr := testTracer(nil, sink)
	tr.SetNow(fixedClock())

	sp := tr.start(KindChaseRun, 0, "", 10, 3) // tick 1, id 1
	rd := sp.Child(KindChaseRound, 1, 5)       // tick 2, id 2
	rd.EndNote("budget", 0, 0, 2)              // tick 3
	sp.End(2, 7)                               // tick 4
	if err := sink.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}

	got := buf.String()
	want := strings.Join([]string{
		`{"type":"span","name":"chase.round","span":2,"parent":1,"start_us":1700000000002000,"dur_us":1000,"attrs":{"deferred":0,"delta":5,"derived":0,"firings":2,"round":1,"status":"budget"}}`,
		`{"type":"span","name":"chase.run","span":1,"start_us":1700000000001000,"dur_us":3000,"attrs":{"base_facts":10,"derived":7,"rounds":2,"tgds":3}}`,
	}, "\n") + "\n"
	if got != want {
		t.Errorf("trace output mismatch:\n got: %s\nwant: %s", got, want)
	}
}

// TestJSONLSinkParentGolden pins the parent field and the flag rendering:
// children carry the id of the span that spawned them, flag slots encode
// as JSON booleans, and a span closed early (no end values) shows only
// what it was given at start.
func TestJSONLSinkParentGolden(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	tr := testTracer(nil, sink)
	tr.SetNow(fixedClock())

	root := tr.start(KindInquiryRun, 0, "random", 40)             // tick 1, id 1
	q := root.Child(KindQuestion, 1, 2, 4)                        // tick 2, id 2
	scan := tr.start(KindConflictScan, q.ID(), "", 3, Bit(false)) // tick 3, id 3
	scan.End(2)                                                   // tick 4
	q.End()                                                       // tick 5
	root.End(1, Bit(true))                                        // tick 6
	if err := sink.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}

	got := buf.String()
	want := strings.Join([]string{
		`{"type":"span","name":"conflict.scan","span":3,"parent":2,"start_us":1700000000003000,"dur_us":1000,"attrs":{"cdds":3,"conflicts":2,"naive":false}}`,
		`{"type":"span","name":"inquiry.question","span":2,"parent":1,"start_us":1700000000002000,"dur_us":3000,"attrs":{"conflicts":4,"phase":2,"q":1}}`,
		`{"type":"span","name":"inquiry.run","span":1,"start_us":1700000000001000,"dur_us":5000,"attrs":{"consistent":true,"facts":40,"questions":1,"strategy":"random"}}`,
	}, "\n") + "\n"
	if got != want {
		t.Errorf("trace output mismatch:\n got: %s\nwant: %s", got, want)
	}
}

// TestJSONLSinkBuffers verifies writes stay in the buffer until Flush —
// the whole point of the buffered sink — and that Flush drains them.
func TestJSONLSinkBuffers(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	sink.Write(Event{Kind: KindPickConflict, Span: 1})
	if buf.Len() != 0 {
		t.Errorf("record reached writer before Flush (%d bytes)", buf.Len())
	}
	if err := sink.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if buf.Len() == 0 {
		t.Error("Flush left the buffer empty")
	}
}

// TestRingHoldsBeginMarksSpansAndPoints: with the ring on, opening a span
// leaves a begin mark carrying the start payload, closing it records the
// whole event once, and point events land in the ring only — the -trace
// sink sees closed spans and nothing else.
func TestRingHoldsBeginMarksSpansAndPoints(t *testing.T) {
	ring := newRing(16, time.Now())
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	tr := testTracer(ring, sink)

	sp := tr.start(KindTrackerUpdate, 7, "", 42)
	tr.point(KindHomoSearch, "", []int{2, 9, 4, 1})
	sp.End(3, 1)
	evs := ring.Events()
	if len(evs) != 3 {
		t.Fatalf("ring holds %d events, want begin mark, point, close", len(evs))
	}
	mark, pt, end := evs[0], evs[1], evs[2]
	if !mark.Open || mark.Span != sp.ID() || mark.Parent != 7 || mark.Set != 1 {
		t.Errorf("begin mark = %+v", mark)
	}
	if mark.N[0] != 42 {
		t.Errorf("begin mark fact = %d, want 42", mark.N[0])
	}
	if pt.Span != 0 || pt.Kind != KindHomoSearch || pt.N != [MaxFields]int64{2, 9, 4, 1} {
		t.Errorf("point = %+v", pt)
	}
	if end.Open || end.Span != sp.ID() || end.N != [MaxFields]int64{42, 3, 1} {
		t.Errorf("closed span = %+v", end)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != 1 || !strings.Contains(buf.String(), `"conflict.tracker_update"`) {
		t.Errorf("sink got %d lines, want only the closed span:\n%s", lines, buf.String())
	}
	if ring.Total() != 3 || evs[0].Seq != 1 || evs[2].Seq != 3 {
		t.Errorf("sequence: total %d, seqs %d..%d", ring.Total(), evs[0].Seq, evs[2].Seq)
	}
}

// TestNilSinkIsInert: with neither the ring nor a -trace sink installed,
// spans and points do nothing.
func TestNilSinkIsInert(t *testing.T) {
	tr := testTracer(nil, nil)
	// Inert spans and points must be allocation-free with payloads passed —
	// they sit on the hot paths of an un-flagged run.
	allocs := testing.AllocsPerRun(1000, func() {
		s := tr.start(KindChaseRun, 0, "", 1, 2)
		c := s.Child(KindChaseRound, 1, 5)
		c.EndNote("budget", 0, 0, 0)
		s.End(1, 0)
		tr.point(KindHomoSearch, "", []int{1, 2, 3, 4})
	})
	if allocs != 0 {
		t.Fatalf("inert span allocates: %.1f allocs/op", allocs)
	}
	if id := tr.start(KindChaseRun, 0, "").ID(); id != 0 {
		t.Errorf("inert span ID = %d, want 0", id)
	}
}

// TestSpanRingZeroAlloc pins the enabled path without a -trace file:
// opening and closing spans and recording points with only the ring on
// is a copy into pre-allocated slots, no allocation.
func TestSpanRingZeroAlloc(t *testing.T) {
	EnableRing(64)
	t.Cleanup(DisableRing)
	allocs := testing.AllocsPerRun(1000, func() {
		s := Start(KindQuestion, 0, 1, 1, 3)
		c := s.Child(KindSoundQuestion)
		c.End(2, 4)
		s.End(4, 120)
		Point(KindParDispatch, "core.pi", 8, 2)
	})
	if allocs != 0 {
		t.Fatalf("ring-only span and point allocate: %.1f allocs/op", allocs)
	}
}

// TestClockSwapConcurrent: reading the clock is one atomic load, so
// concurrent spans never contend on a tracer lock while a test swaps the
// clock (the -race leg of verify2 would catch an unsynchronized swap).
func TestClockSwapConcurrent(t *testing.T) {
	tr := testTracer(newRing(64, time.Now()), nil)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			tr.SetNow(fixedClock())
			tr.SetNow(nil)
		}
	}()
	for i := 0; i < 100; i++ {
		sp := tr.start(KindPickConflict, 0, "")
		tr.point(KindHomoSearch, "", nil)
		sp.End()
	}
	<-done
}

func TestSinkSwapMidSpan(t *testing.T) {
	ring := newRing(8, time.Now())
	tr := testTracer(ring, nil)
	sp := tr.start(KindPickConflict, 0, "")
	tr.swap(func(o *outputs) { o.ring = nil })
	sp.End() // outputs gone: dropped, no panic
	if got := ring.Total(); got != 1 {
		t.Errorf("ring total = %d after outputs removed, want only the begin mark", got)
	}
}

// TestRingSinkWrapAround hammers a small ring from several goroutines
// while another reads it, wrapping it many times over: every event stays
// whole and the total is exact.
func TestRingSinkWrapAround(t *testing.T) {
	r := newRing(128, time.Now())
	tr := testTracer(r, nil)
	const writers, per = 4, 1000
	var wg sync.WaitGroup
	wg.Add(writers)
	for g := 0; g < writers; g++ {
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				tr.point(KindParDispatch, "x", []int{g, i})
			}
		}(g)
	}
	for i := 0; i < 50; i++ {
		for _, e := range r.Events() {
			if e.Kind != KindParDispatch || e.Note != "x" || e.Set != 2 {
				t.Fatalf("torn event: %+v", e)
			}
		}
	}
	wg.Wait()
	if r.Total() != writers*per {
		t.Fatalf("total = %d, want %d", r.Total(), writers*per)
	}
}

func TestKindNames(t *testing.T) {
	seen := make(map[string]bool)
	for k := kindInvalid + 1; k < numKinds; k++ {
		s := k.String()
		if s == "" || strings.HasPrefix(s, "kind(") || seen[s] {
			t.Errorf("kind %d has no unique name: %q", k, s)
		}
		seen[s] = true
		if n := len(kinds[k].fields); n > MaxFields {
			t.Errorf("%s names %d fields, more than the %d slots", s, n, MaxFields)
		}
	}
}

// BenchmarkRingPointDisabled is the benchmark-guarded form of the disabled
// path (same pattern as BenchmarkSamplerDisabled): run with -benchmem,
// expect 0 allocs/op.
func BenchmarkRingPointDisabled(b *testing.B) {
	DisableRing()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Point(KindHomoSearch, "", i, 2, 3, 4)
	}
}

func BenchmarkRingPointEnabled(b *testing.B) {
	EnableRing(DefaultRingCapacity)
	defer DisableRing()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Point(KindHomoSearch, "", i, 2, 3, 4)
	}
}

// BenchmarkRingSpan opens and closes a span with the ring on and no -trace
// sink: two clock reads and two ring copies, 0 allocs/op.
func BenchmarkRingSpan(b *testing.B) {
	EnableRing(DefaultRingCapacity)
	defer DisableRing()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Start(KindTrackerUpdate, 0, i).End(1, 2)
	}
}

func TestServeDebug(t *testing.T) {
	addr, err := ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Skipf("cannot listen on localhost: %v", err)
	}
	resp, err := http.Get("http://" + addr + "/debug/vars")
	if err != nil {
		t.Fatalf("GET /debug/vars: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("status = %d", resp.StatusCode)
	}
}
