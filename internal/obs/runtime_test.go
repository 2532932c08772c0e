package obs

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestReadRuntimePopulatesStats(t *testing.T) {
	runtime.GC() // guarantee at least one GC cycle and pause sample
	st := ReadRuntime()
	if st.Goroutines < 1 {
		t.Errorf("Goroutines = %d, want >= 1", st.Goroutines)
	}
	if st.GOMAXPROCS < 1 {
		t.Errorf("GOMAXPROCS = %d, want >= 1", st.GOMAXPROCS)
	}
	if st.HeapLiveBytes == 0 {
		t.Error("HeapLiveBytes = 0")
	}
	if st.HeapGoalBytes == 0 {
		t.Error("HeapGoalBytes = 0")
	}
	if st.GCCycles == 0 {
		t.Error("GCCycles = 0 after an explicit runtime.GC()")
	}
	if st.GCPauses.Count == 0 {
		t.Error("GCPauses.Count = 0 after an explicit runtime.GC()")
	}
	if st.GCPauses.P50 > st.GCPauses.P99 || st.GCPauses.P99 > st.GCPauses.Max {
		t.Errorf("GC pause quantiles not monotone: %+v", st.GCPauses)
	}
}

func TestReadRuntimeRefreshesGauges(t *testing.T) {
	st := ReadRuntime()
	snap := Default().Snapshot()
	g, ok := snap.Gauges["runtime.goroutines"]
	if !ok {
		t.Fatal("runtime.goroutines gauge not registered after ReadRuntime")
	}
	if g == 0 {
		t.Error("runtime.goroutines gauge = 0")
	}
	if hl := snap.Gauges["runtime.heap_live_bytes"]; hl <= 0 {
		t.Errorf("runtime.heap_live_bytes gauge = %d", hl)
	}
	_ = st
}

func TestRuntimePollerStartStop(t *testing.T) {
	p := StartRuntimePoller(time.Millisecond)
	time.Sleep(5 * time.Millisecond)
	p.Stop() // must not hang or panic
	var nilP *RuntimePoller
	nilP.Stop() // nil-safe
}

func TestWriteRuntimeProm(t *testing.T) {
	runtime.GC()
	var sb strings.Builder
	if err := writeRuntimeProm(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE kbrepair_runtime_gc_pauses_seconds histogram",
		"kbrepair_runtime_gc_pauses_seconds_count",
		"kbrepair_runtime_gc_pauses_seconds_sum",
		"_bucket{le=",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prom output missing %q:\n%s", want, out)
		}
	}
}
