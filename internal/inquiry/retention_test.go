package inquiry

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"kbrepair/internal/synth"
)

// A finished session must leave nothing behind that keeps its KB's rules
// alive: compiled plans and ⊥-rules live in the rules' own memos, not in
// process-wide maps keyed by rule pointer. After one Run the KB is dropped,
// and finalizers on one of its TGDs and one of its CDDs must run within a
// bounded number of collections.
func TestSessionRetainsNoRules(t *testing.T) {
	var tgdFreed, cddFreed atomic.Bool
	runAndDrop(t, &tgdFreed, &cddFreed)
	for i := 0; i < 20 && !(tgdFreed.Load() && cddFreed.Load()); i++ {
		runtime.GC()
		time.Sleep(5 * time.Millisecond) // let the finalizer goroutine run
	}
	if !tgdFreed.Load() || !cddFreed.Load() {
		t.Fatalf("after 20 collections: TGD freed=%v, CDD freed=%v; something still references the dropped KB's rules",
			tgdFreed.Load(), cddFreed.Load())
	}
}

// runAndDrop runs one session on a fresh synth KB whose TGDs feed its
// CDDs and marks its first TGD and CDD for finalization. Nothing of the
// session escapes the call.
func runAndDrop(t *testing.T, tgdFreed, cddFreed *atomic.Bool) {
	t.Helper()
	g, err := synth.Generate(synth.Params{
		Seed:               2,
		NumFacts:           120,
		InconsistencyRatio: 0.25,
		NumCDDs:            8,
		NumTGDs:            4,
		JoinVarRatio:       0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	kb := g.KB
	if len(kb.TGDs) == 0 || len(kb.CDDs) == 0 {
		t.Fatal("workload lacks TGDs or CDDs")
	}
	runtime.SetFinalizer(kb.TGDs[0], func(any) { tgdFreed.Store(true) })
	runtime.SetFinalizer(kb.CDDs[0], func(any) { cddFreed.Store(true) })
	res, err := New(kb, OptiMCD{}, NewSimulatedUser(3), 3, Options{DisablePiRepOpt: true}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Questions == 0 || res.FullChecks == 0 {
		t.Fatalf("%d questions, %d full checks: the session exercised no plans", res.Questions, res.FullChecks)
	}
}
