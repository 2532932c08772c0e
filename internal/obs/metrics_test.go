package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"sync"
	"testing"
	"time"
)

func TestCounterBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test.count")
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("Value() = %d, want 42", got)
	}
	if r.Counter("test.count") != c {
		t.Error("re-registration did not return the same counter")
	}
	r.Reset()
	if got := c.Value(); got != 0 {
		t.Fatalf("after Reset, Value() = %d, want 0", got)
	}
}

// TestRegistryConcurrency hammers one counter, one gauge and one histogram
// from many goroutines; run under -race this is the registry's data-race
// proof, and the final totals prove no increment is lost.
func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("conc.count")
	g := r.Gauge("conc.gauge")
	h := r.Histogram("conc.hist", []float64{0.5})
	const (
		goroutines = 16
		perG       = 2000
	)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < perG; j++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i % 2)) // alternate buckets
				if j%100 == 0 {
					_ = r.Snapshot() // concurrent reads
				}
			}
		}(i)
	}
	wg.Wait()
	const want = goroutines * perG
	if got := c.Value(); got != want {
		t.Errorf("counter = %d, want %d", got, want)
	}
	if got := g.Value(); got != want {
		t.Errorf("gauge = %d, want %d", got, want)
	}
	if got := h.Count(); got != want {
		t.Errorf("histogram count = %d, want %d", got, want)
	}
	snap := r.Snapshot().Histograms["conc.hist"]
	if snap.Counts[0]+snap.Counts[1] != want {
		t.Errorf("bucket counts = %v, want sum %d", snap.Counts, want)
	}
	if snap.Min != 0 || snap.Max != 1 {
		t.Errorf("min/max = %v/%v, want 0/1", snap.Min, snap.Max)
	}
	if math.Abs(snap.Sum-float64(want)/2) > 1e-6 {
		t.Errorf("sum = %v, want %v", snap.Sum, float64(want)/2)
	}
}

// TestSnapshotDuringUpdates runs Registry.Snapshot in a tight loop while
// writers hammer Counter.Add and Histogram.Observe. Under -race this is
// the reader-side data-race proof; the assertions check snapshot values
// are monotone (a snapshot never travels back in time) and internally
// sane (bucket sums never exceed the observation count seen later).
func TestSnapshotDuringUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("live.count")
	h := r.Histogram("live.hist", []float64{0.5})
	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
					c.Add(1)
					h.Observe(0.25)
				}
			}
		}()
	}
	var prevCount, prevHist int64
	for i := 0; i < 500; i++ {
		s := r.Snapshot()
		if got := s.Counters["live.count"]; got < prevCount {
			t.Fatalf("counter snapshot went backwards: %d then %d", prevCount, got)
		} else {
			prevCount = got
		}
		hs := s.Histograms["live.hist"]
		if hs.Count < prevHist {
			t.Fatalf("histogram count went backwards: %d then %d", prevHist, hs.Count)
		}
		prevHist = hs.Count
		var buckets int64
		for _, b := range hs.Counts {
			buckets += b
		}
		// Bucket cells and the total are updated by separate atomics, so a
		// snapshot may catch an observation between the two; the skew is
		// bounded by the number of in-flight writers.
		if diff := buckets - hs.Count; diff < -4 || diff > 4 {
			t.Fatalf("bucket total %d vs count %d: skew beyond in-flight writers", buckets, hs.Count)
		}
	}
	close(done)
	wg.Wait()
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 2, 10, 11, 1000} {
		h.Observe(v)
	}
	s := r.Snapshot().Histograms["h"]
	// Bounds are inclusive upper edges: 1 lands in bucket 0, 10 in 1.
	want := []int64{2, 2, 1, 1}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Errorf("bucket %d = %d, want %d (all: %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Min != 0.5 || s.Max != 1000 {
		t.Errorf("min/max = %v/%v", s.Min, s.Max)
	}
	if s.Count != 6 {
		t.Errorf("count = %d", s.Count)
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("a.count").Add(3)
	r.Gauge("b.level").Set(-7)
	r.Histogram("c.lat", []float64{0.1, 1}).Observe(0.05)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v\n%s", err, buf.String())
	}
	if snap.Counters["a.count"] != 3 || snap.Gauges["b.level"] != -7 {
		t.Errorf("round-trip mismatch: %+v", snap)
	}
	h := snap.Histograms["c.lat"]
	if h.Count != 1 || h.Counts[0] != 1 {
		t.Errorf("histogram round-trip mismatch: %+v", h)
	}
}

func TestTimerDisabledIsInert(t *testing.T) {
	SetEnabled(false)
	tm := StartTimer()
	if tm.Active() {
		t.Fatal("timer active while disabled")
	}
	r := NewRegistry()
	h := r.Histogram("t", nil)
	h.Since(tm)
	if h.Count() != 0 {
		t.Fatal("inert timer was observed")
	}
	SetEnabled(true)
	defer SetEnabled(false)
	tm = StartTimer()
	if !tm.Active() {
		t.Fatal("timer inactive while enabled")
	}
	time.Sleep(time.Microsecond)
	h.Since(tm)
	if h.Count() != 1 {
		t.Fatal("active timer not observed")
	}
}

// TestDisabledInstrumentsAllocationFree is the acceptance guard: the
// instrument calls an un-flagged run performs per chase round — counter
// adds, a disabled timer, a histogram observe, a disabled span — must not
// allocate.
func TestDisabledInstrumentsAllocationFree(t *testing.T) {
	SetEnabled(false)
	r := NewRegistry()
	c := r.Counter("alloc.count")
	h := r.Histogram("alloc.hist", nil)
	allocs := testing.AllocsPerRun(1000, func() {
		c.Add(3)
		tm := StartTimer()
		h.Since(tm)
		h.Observe(0.001)
		Start(KindChaseRound, 0, 1, 2).End(3)
	})
	if allocs != 0 {
		t.Fatalf("disabled instruments allocate: %.1f allocs/op", allocs)
	}
}

// BenchmarkDisabledInstruments measures the per-round overhead of the
// disabled path (report with -benchmem: must stay at 0 allocs/op).
func BenchmarkDisabledInstruments(b *testing.B) {
	SetEnabled(false)
	r := NewRegistry()
	c := r.Counter("bench.count")
	h := r.Histogram("bench.hist", nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
		h.Since(StartTimer())
	}
}

// BenchmarkCounterParallel exercises the striping under contention.
func BenchmarkCounterParallel(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("bench.parallel")
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}
