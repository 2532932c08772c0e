package par

import (
	"flag"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"kbrepair/internal/obs"
)

// withWorkers pins the pool size for the duration of a test.
func withWorkers(t *testing.T, n int) {
	t.Helper()
	prev := workers.Load()
	SetWorkers(n)
	t.Cleanup(func() { workers.Store(prev); gWorkers.Set(int64(Workers())) })
}

func TestWorkersDefault(t *testing.T) {
	withWorkers(t, 0)
	if got, want := Workers(), runtime.GOMAXPROCS(0); got != want {
		t.Errorf("Workers() = %d, want GOMAXPROCS %d", got, want)
	}
}

func TestSetWorkers(t *testing.T) {
	withWorkers(t, 0)
	if got := SetWorkers(5); got != 5 {
		t.Errorf("SetWorkers(5) = %d", got)
	}
	if got := Workers(); got != 5 {
		t.Errorf("Workers() = %d after SetWorkers(5)", got)
	}
	if got := SetWorkers(-1); got != runtime.GOMAXPROCS(0) {
		t.Errorf("SetWorkers(-1) = %d, want default", got)
	}
	if gWorkers.Value() != int64(Workers()) {
		t.Errorf("par.workers gauge = %d, want %d", gWorkers.Value(), Workers())
	}
}

func TestDoRunsEveryTaskExactlyOnce(t *testing.T) {
	for _, w := range []int{1, 2, 8} {
		withWorkers(t, w)
		const n = 100
		var counts [n]atomic.Int32
		MapNamed("test.once", n, func(i int) struct{} { counts[i].Add(1); return struct{}{} })
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("workers=%d: task %d ran %d times", w, i, c)
			}
		}
	}
}

func TestDoZeroAndNegative(t *testing.T) {
	ran := false
	fn := func(int) bool { ran = true; return true }
	if out := MapNamed("test.empty", 0, fn); len(out) != 0 {
		t.Errorf("MapNamed(0) = %v, want no results", out)
	}
	if out := MapNamed("test.empty", -3, fn); len(out) != 0 {
		t.Errorf("MapNamed(-3) = %v, want no results", out)
	}
	if ran {
		t.Error("MapNamed ran tasks for n <= 0")
	}
}

func TestMapIsDeterministicAcrossWorkerCounts(t *testing.T) {
	sq := func(i int) int { return i * i }
	withWorkers(t, 1)
	seq := MapNamed("test.sq", 64, sq)
	withWorkers(t, 8)
	parl := MapNamed("test.sq", 64, sq)
	if len(seq) != len(parl) {
		t.Fatalf("length mismatch: %d vs %d", len(seq), len(parl))
	}
	for i := range seq {
		if seq[i] != parl[i] {
			t.Fatalf("slot %d: %d (workers=1) vs %d (workers=8)", i, seq[i], parl[i])
		}
	}
}

func TestDoPropagatesPanic(t *testing.T) {
	withWorkers(t, 4)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("panic not propagated")
		}
		if s, ok := r.(string); !ok || !strings.Contains(s, "boom") {
			t.Fatalf("unexpected panic value %v", r)
		}
	}()
	MapNamed("test.panic", 16, func(i int) int {
		if i == 7 {
			panic("boom 7")
		}
		return i
	})
}

func TestDoCountsTasks(t *testing.T) {
	withWorkers(t, 2)
	before := mTasks.Value()
	MapNamed("test.count", 10, func(int) int { return 0 })
	if got := mTasks.Value() - before; got != 10 {
		t.Errorf("par.tasks advanced by %d, want 10", got)
	}
}

func TestAddFlags(t *testing.T) {
	withWorkers(t, 0)
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	n := AddFlags(fs)
	if err := fs.Parse([]string{"-workers", "3"}); err != nil {
		t.Fatal(err)
	}
	Configure(n)
	if got := Workers(); got != 3 {
		t.Errorf("Workers() = %d after -workers 3", got)
	}
}

// TestDoConcurrentFanOuts exercises overlapping MapNamed calls from multiple
// goroutines (the shape a future parallel phase-2 would produce) under the
// race detector.
func TestDoConcurrentFanOuts(t *testing.T) {
	withWorkers(t, 4)
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			var sum atomic.Int64
			MapNamed("test.sum", 50, func(i int) int { sum.Add(int64(i)); return i })
			if sum.Load() != 50*49/2 {
				t.Error("wrong sum")
			}
		}()
	}
	for g := 0; g < 4; g++ {
		<-done
	}
}

// TestDoRefreshesWorkersGauge pins the satellite fix: with -workers unset
// the par.workers gauge must track GOMAXPROCS changes made after package
// init, refreshed on each fan-out.
func TestDoRefreshesWorkersGauge(t *testing.T) {
	withWorkers(t, 0)
	old := runtime.GOMAXPROCS(0)
	runtime.GOMAXPROCS(3)
	defer func() {
		runtime.GOMAXPROCS(old)
		gWorkers.Set(int64(Workers()))
	}()
	MapNamed("test.gauge", 4, func(int) int { return 0 })
	if got := gWorkers.Value(); got != 3 {
		t.Errorf("par.workers gauge = %d after GOMAXPROCS(3)+MapNamed, want 3", got)
	}
}

// TestMapNamedMatchesMap checks that a true fan-out returns its results
// in task order and names its call site in the par.dispatch ring event.
func TestMapNamedMatchesMap(t *testing.T) {
	withWorkers(t, 4)
	ring := obs.EnableRing(64)
	t.Cleanup(obs.DisableRing)
	got := MapNamed("test.map", 16, func(i int) int { return i * 3 })
	for i, v := range got {
		if v != i*3 {
			t.Fatalf("slot %d = %d", i, v)
		}
	}
	var dispatches []obs.Event
	for _, e := range ring.Events() {
		if e.Kind == obs.KindParDispatch {
			dispatches = append(dispatches, e)
		}
	}
	if len(dispatches) != 1 {
		t.Fatalf("%d par.dispatch events, want 1", len(dispatches))
	}
	if e := dispatches[0]; e.N[0] != 16 || e.N[1] != 4 || e.Note != "test.map" {
		t.Fatalf("par.dispatch = %+v, want tasks 16, workers 4, note test.map", e)
	}
}
