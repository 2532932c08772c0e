package conflict_test

import (
	"fmt"
	"testing"

	"kbrepair/internal/chase"
	"kbrepair/internal/conflict"
	"kbrepair/internal/logic"
	"kbrepair/internal/store"
	"kbrepair/internal/synth"
)

// trackerDump renders a tracker's conflicts key by key, with the facts
// each one maps onto and its base support.
func trackerDump(t *conflict.Tracker) []string {
	var out []string
	for _, c := range t.Conflicts() {
		out = append(out, fmt.Sprintf("%s facts=%v base=%v direct=%v", c.Key(), c.Facts, c.BaseFacts, c.Direct))
	}
	return out
}

// TestNewTrackerFromMatchesNaiveScan: a tracker seeded from the chase-level
// conflicts holds exactly the conflicts of a naive-scan tracker, key for
// key and fact for fact, on synth KBs whose TGDs feed the CDDs — and keeps
// agreeing after the same updates.
func TestNewTrackerFromMatchesNaiveScan(t *testing.T) {
	cases := []synth.Params{
		{Seed: 2, NumFacts: 120, InconsistencyRatio: 0.25, NumCDDs: 8, NumTGDs: 4, JoinVarRatio: 0.3},
		{Seed: 3, NumFacts: 300, InconsistencyRatio: 0.1, NumCDDs: 10, NumTGDs: 6, JoinVarRatio: 0.5},
		{Seed: 4, NumFacts: 80, InconsistencyRatio: 0.4, NumCDDs: 12, NumTGDs: 2, JoinVarRatio: 0.2},
		{Seed: 5, NumFacts: 200, InconsistencyRatio: 0.25, NumCDDs: 20, NumTGDs: 10, Depth: 2},
	}
	for _, p := range cases {
		g, err := synth.Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		kb := g.KB
		all, res, err := conflict.All(kb.Facts, kb.TGDs, kb.CDDs, kb.ChaseOpts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Store.Len() == res.BaseLen {
			t.Fatalf("seed %d: the chase derived nothing; the case tests nothing", p.Seed)
		}
		naive := conflict.NewTracker(kb.Facts, kb.CDDs)
		from := conflict.NewTrackerFrom(kb.Facts, kb.CDDs, all)
		compareTrackers(t, fmt.Sprintf("seed %d", p.Seed), naive, from)
		// The same answers keep them equal: the seeded tracker is a
		// working tracker, not a snapshot.
		for i, c := range naive.Conflicts() {
			if i == 5 {
				break
			}
			pos := store.Position{Fact: c.BaseFacts[0], Arg: 0}
			kb.Facts.MustSetValue(pos, kb.Facts.FreshNull())
			naive.Update(pos.Fact)
			from.Update(pos.Fact)
		}
		compareTrackers(t, fmt.Sprintf("seed %d after updates", p.Seed), naive, from)
	}
}

// TestNewTrackerFromDerivedDuplicate: a multi-atom TGD head re-derives a
// copy of a base fact; the copy must not hide the base fact's direct
// conflict from the seeded tracker.
func TestNewTrackerFromDerivedDuplicate(t *testing.T) {
	s := store.MustFromAtoms([]logic.Atom{
		logic.NewAtom("a", logic.C("k")),
		logic.NewAtom("p", logic.C("k")),
		logic.NewAtom("q", logic.C("k")),
	})
	tgds := []*logic.TGD{logic.MustTGD(
		[]logic.Atom{logic.NewAtom("a", logic.V("X"))},
		[]logic.Atom{logic.NewAtom("p", logic.V("X")), logic.NewAtom("r", logic.V("X"))},
	)}
	cdds := []*logic.CDD{
		logic.MustCDD([]logic.Atom{logic.NewAtom("p", logic.V("X")), logic.NewAtom("q", logic.V("X"))}),
		logic.MustCDD([]logic.Atom{logic.NewAtom("r", logic.V("X")), logic.NewAtom("q", logic.V("X"))}),
	}
	all, res, err := conflict.All(s, tgds, cdds, chase.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Store.FindExact(logic.NewAtom("p", logic.C("k")))) != 2 {
		t.Fatal("the chase did not re-derive p(k); the case tests nothing")
	}
	compareTrackers(t, "duplicate", conflict.NewTracker(s, cdds), conflict.NewTrackerFrom(s, cdds, all))
}

func compareTrackers(t *testing.T, name string, want, got *conflict.Tracker) {
	t.Helper()
	w, g := trackerDump(want), trackerDump(got)
	if len(w) == 0 {
		t.Fatalf("%s: no naive conflicts; the case tests nothing", name)
	}
	if fmt.Sprint(w) != fmt.Sprint(g) {
		t.Fatalf("%s: seeded tracker differs from the naive scan\n got %v\nwant %v", name, g, w)
	}
}
