package inquiry

import (
	"testing"

	"kbrepair/internal/obs"
	"kbrepair/internal/synth"
)

// The Π-checker keeps one Π-nulled instance for the whole session and
// patches it by Π deltas. On a CDD-only KB nothing else adds facts to any
// store (no chase runs), so a whole repair session may add at most |F|
// facts: the instance's one build.
func TestPiInstanceBuiltOncePerSession(t *testing.T) {
	g, err := synth.Generate(synth.Params{
		Seed:               4,
		NumFacts:           150,
		InconsistencyRatio: 0.25,
		NumCDDs:            6,
		JoinVarRatio:       0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	kb := g.KB
	if len(kb.TGDs) != 0 {
		t.Fatal("workload has TGDs; the test needs a CDD-only KB")
	}
	n := int64(kb.Facts.Len())
	added := obs.Default().Counter("store.facts_added")
	before := added.Value()
	// With the fast path off every candidate fix takes a full check.
	res, err := New(kb, OptiMCD{}, NewSimulatedUser(3), 3, Options{DisablePiRepOpt: true}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Questions < 3 || res.FullChecks == 0 {
		t.Fatalf("%d questions, %d full checks: too few for the test to mean anything", res.Questions, res.FullChecks)
	}
	if got := added.Value() - before; got > n {
		t.Errorf("store.facts_added rose by %d over %d questions, want at most |F| = %d", got, res.Questions, n)
	}
}
