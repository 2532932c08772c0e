package obs

import (
	"fmt"
	"io"
	"math"
	"runtime/metrics"
	"sync"
	"time"
)

// Runtime metric names read per poll. Histogram-kinded samples get a
// HistSummary; the rest become registry gauges so they flow through the
// JSONL time-series sampler, /metrics and debug bundles for free.
const (
	mGoroutines = "/sched/goroutines:goroutines"
	mHeapLive   = "/gc/heap/live:bytes"
	mHeapGoal   = "/gc/heap/goal:bytes"
	mGCCycles   = "/gc/cycles/total:gc-cycles"
	mGCPauses   = "/gc/pauses:seconds"
	mSchedLat   = "/sched/latencies:seconds"
	mGOMAXPROCS = "/sched/gomaxprocs:threads"
)

// HistSummary condenses a runtime/metrics float histogram into the
// quantiles a human actually reads. Quantiles are
// bucket upper bounds, so they overestimate by at most one bucket width.
type HistSummary struct {
	Count uint64  `json:"count"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
	Max   float64 `json:"max"`
}

// RuntimeStats is one reading of the Go runtime's own telemetry: the
// bundle runtime.json section.
type RuntimeStats struct {
	Goroutines     int64       `json:"goroutines"`
	GOMAXPROCS     int64       `json:"gomaxprocs"`
	HeapLiveBytes  uint64      `json:"heap_live_bytes"`
	HeapGoalBytes  uint64      `json:"heap_goal_bytes"`
	GCCycles       uint64      `json:"gc_cycles"`
	GCPauses       HistSummary `json:"gc_pauses_seconds"`
	SchedLatencies HistSummary `json:"sched_latencies_seconds"`
}

// Runtime gauges are registered lazily on the first ReadRuntime call, so
// processes that never poll (plain CLI runs, the bench gate) keep their
// metrics snapshots free of machine-noise series.
var (
	runtimeGaugesOnce sync.Once
	gGoroutines       *Gauge
	gHeapLive         *Gauge
	gHeapGoal         *Gauge
	gGCCycles         *Gauge
	gGCPauseP99US     *Gauge
	gSchedLatP99US    *Gauge
)

func runtimeGauges() {
	runtimeGaugesOnce.Do(func() {
		gGoroutines = NewGauge("runtime.goroutines")
		gHeapLive = NewGauge("runtime.heap_live_bytes")
		gHeapGoal = NewGauge("runtime.heap_goal_bytes")
		gGCCycles = NewGauge("runtime.gc_cycles")
		gGCPauseP99US = NewGauge("runtime.gc_pause_p99_us")
		gSchedLatP99US = NewGauge("runtime.sched_latency_p99_us")
	})
}

func readSamples() []metrics.Sample {
	// A fresh slice per read: ReadRuntime is called concurrently by the
	// poller and bundle capture, and metrics.Read writes in place.
	return []metrics.Sample{
		{Name: mGoroutines},
		{Name: mHeapLive},
		{Name: mHeapGoal},
		{Name: mGCCycles},
		{Name: mGCPauses},
		{Name: mSchedLat},
		{Name: mGOMAXPROCS},
	}
}

func sampleUint(s metrics.Sample) uint64 {
	if s.Value.Kind() == metrics.KindUint64 {
		return s.Value.Uint64()
	}
	return 0
}

// summarizeHist reduces a runtime float histogram to count + quantiles.
func summarizeHist(s metrics.Sample) HistSummary {
	var out HistSummary
	if s.Value.Kind() != metrics.KindFloat64Histogram {
		return out
	}
	h := s.Value.Float64Histogram()
	if h == nil {
		return out
	}
	for _, c := range h.Counts {
		out.Count += c
	}
	if out.Count == 0 {
		return out
	}
	// Upper bound of bucket i is Buckets[i+1]; the last bucket's bound may
	// be +Inf, in which case its lower bound is the honest answer.
	bound := func(i int) float64 {
		hi := h.Buckets[i+1]
		if math.IsInf(hi, 1) {
			return h.Buckets[i]
		}
		return hi
	}
	quantile := func(q float64) float64 {
		target := uint64(math.Ceil(q * float64(out.Count)))
		var cum uint64
		for i, c := range h.Counts {
			cum += c
			if cum >= target {
				return bound(i)
			}
		}
		return bound(len(h.Counts) - 1)
	}
	out.P50 = quantile(0.50)
	out.P90 = quantile(0.90)
	out.P99 = quantile(0.99)
	for i := len(h.Counts) - 1; i >= 0; i-- {
		if h.Counts[i] > 0 {
			out.Max = bound(i)
			break
		}
	}
	return out
}

// ReadRuntime polls runtime/metrics once, refreshes the runtime.* gauges
// on the default registry (registering them on first use) and returns
// the reading. Cheap enough (a handful of atomic reads inside the
// runtime) to call from bundle capture and a 250ms poller.
func ReadRuntime() *RuntimeStats {
	runtimeGauges()
	samples := readSamples()
	metrics.Read(samples)
	st := &RuntimeStats{}
	for _, s := range samples {
		switch s.Name {
		case mGoroutines:
			st.Goroutines = int64(sampleUint(s))
		case mGOMAXPROCS:
			st.GOMAXPROCS = int64(sampleUint(s))
		case mHeapLive:
			st.HeapLiveBytes = sampleUint(s)
		case mHeapGoal:
			st.HeapGoalBytes = sampleUint(s)
		case mGCCycles:
			st.GCCycles = sampleUint(s)
		case mGCPauses:
			st.GCPauses = summarizeHist(s)
		case mSchedLat:
			st.SchedLatencies = summarizeHist(s)
		}
	}
	gGoroutines.Set(st.Goroutines)
	gHeapLive.Set(int64(st.HeapLiveBytes))
	gHeapGoal.Set(int64(st.HeapGoalBytes))
	gGCCycles.Set(int64(st.GCCycles))
	gGCPauseP99US.Set(int64(st.GCPauses.P99 * 1e6))
	gSchedLatP99US.Set(int64(st.SchedLatencies.P99 * 1e6))
	return st
}

// RuntimePoller periodically refreshes the runtime.* gauges so the JSONL
// time-series sampler and Prometheus scrapes see live values.
type RuntimePoller struct {
	stop chan struct{}
	done chan struct{}
}

// StartRuntimePoller begins polling every interval (<= 0 uses
// DefaultSampleEvery). Stop it with Stop.
func StartRuntimePoller(every time.Duration) *RuntimePoller {
	if every <= 0 {
		every = DefaultSampleEvery
	}
	p := &RuntimePoller{stop: make(chan struct{}), done: make(chan struct{})}
	ReadRuntime()
	go func() {
		defer close(p.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				ReadRuntime()
			case <-p.stop:
				return
			}
		}
	}()
	return p
}

// Stop halts the poller and waits for its goroutine to exit.
func (p *RuntimePoller) Stop() {
	if p == nil {
		return
	}
	close(p.stop)
	<-p.done
}

// writeRuntimeProm renders the two runtime histograms (GC pauses, sched
// latencies) in Prometheus exposition format, straight from a fresh
// runtime/metrics read — the full distributions, not just the gauge
// quantiles. Zero-count bucket runs are collapsed to keep scrapes small;
// a cumulative histogram stays valid under bucket elision.
func writeRuntimeProm(w io.Writer) error {
	samples := readSamples()
	metrics.Read(samples)
	for _, s := range samples {
		var pn string
		switch s.Name {
		case mGCPauses:
			pn = PromName("runtime.gc_pauses_seconds")
		case mSchedLat:
			pn = PromName("runtime.sched_latencies_seconds")
		default:
			continue
		}
		if s.Value.Kind() != metrics.KindFloat64Histogram {
			continue
		}
		h := s.Value.Float64Histogram()
		if h == nil {
			continue
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", pn); err != nil {
			return err
		}
		var cum, total uint64
		var sum float64
		for i, c := range h.Counts {
			total += c
			if c > 0 {
				mid := h.Buckets[i]
				if !math.IsInf(h.Buckets[i+1], 1) && !math.IsInf(h.Buckets[i], -1) {
					mid = (h.Buckets[i] + h.Buckets[i+1]) / 2
				}
				sum += mid * float64(c)
			}
		}
		for i, c := range h.Counts {
			cum += c
			if c == 0 && cum != total {
				continue // collapse empty runs; keep the final cumulative point
			}
			le := "+Inf"
			if !math.IsInf(h.Buckets[i+1], 1) {
				le = fmt.Sprintf("%g", h.Buckets[i+1])
			}
			if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", pn, le, cum); err != nil {
				return err
			}
			if cum == total {
				break
			}
		}
		if _, err := fmt.Fprintf(w, "%s_sum %g\n%s_count %d\n", pn, sum, pn, total); err != nil {
			return err
		}
	}
	return nil
}
