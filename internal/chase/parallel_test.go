package chase

import (
	"fmt"
	"testing"

	"kbrepair/internal/logic"
	"kbrepair/internal/par"
	"kbrepair/internal/store"
)

func withWorkers(t *testing.T, n int) {
	t.Helper()
	par.SetWorkers(n)
	t.Cleanup(func() { par.SetWorkers(0) })
}

// diamondResult builds a diamond-shaped derivation:
//
//	base a(x) ── b(x) ──┐
//	        └── c(x) ──┴─ d(x)
//
// d is derived from b and c, which are both derived from the single base
// fact a — so d's support walk visits a twice through shared provenance.
func diamondResult(t *testing.T) *Result {
	t.Helper()
	s := store.MustFromAtoms([]logic.Atom{
		logic.NewAtom("a", logic.C("x")),
	})
	tgds := []*logic.TGD{
		logic.MustTGD(
			[]logic.Atom{logic.NewAtom("a", logic.V("X"))},
			[]logic.Atom{logic.NewAtom("b", logic.V("X"))}),
		logic.MustTGD(
			[]logic.Atom{logic.NewAtom("a", logic.V("X"))},
			[]logic.Atom{logic.NewAtom("c", logic.V("X"))}),
		logic.MustTGD(
			[]logic.Atom{logic.NewAtom("b", logic.V("X")), logic.NewAtom("c", logic.V("X"))},
			[]logic.Atom{logic.NewAtom("d", logic.V("X"))}),
	}
	res, err := Run(s, tgds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestBaseSupportDiamondMemoized checks both the correctness of support
// sets over a diamond-shaped derivation and that the memo actually kicks
// in: after one BaseSupport call, every fact of the DAG must be cached, and
// repeated queries return equal, independently-owned slices.
func TestBaseSupportDiamondMemoized(t *testing.T) {
	res := diamondResult(t)
	ds := res.Store.ByPredicate("d")
	if len(ds) != 1 {
		t.Fatalf("d derived %d times, want 1", len(ds))
	}
	d := ds[0]
	sup := res.BaseSupport(d)
	if len(sup) != 1 || sup[0] != 0 {
		t.Fatalf("BaseSupport(d) = %v, want [0] (the single base fact, once)", sup)
	}
	// The walk memoizes every intermediate node of the DAG.
	res.supportMu.Lock()
	cached := len(res.supportMemo)
	res.supportMu.Unlock()
	if want := res.Store.Len(); cached != want {
		t.Errorf("memo holds %d entries after one query, want %d (whole DAG)", cached, want)
	}
	// Cached results must not alias caller-visible slices.
	sup2 := res.BaseSupport(d)
	sup2[0] = 99
	if sup3 := res.BaseSupport(d); sup3[0] != 0 {
		t.Error("BaseSupport returned an aliased slice; caller mutation corrupted the memo")
	}
	// Union over several facts agrees with the per-fact sets.
	all := res.BaseSupportAll(append(res.Derived(), 0))
	if len(all) != 1 || all[0] != 0 {
		t.Errorf("BaseSupportAll = %v, want [0]", all)
	}
}

// deepChainKB builds a linear TGD chain p0 → p1 → … → pDepth over several
// seed facts, giving the chase multiple rounds and multiple rules per
// round to collect triggers for.
func deepChainKB(t testing.TB, depth, seeds int) (*store.Store, []*logic.TGD) {
	t.Helper()
	s := store.New()
	for i := 0; i < seeds; i++ {
		s.MustAdd(logic.NewAtom("p0", logic.C(fmt.Sprintf("v%d", i)), logic.C(fmt.Sprintf("w%d", i))))
	}
	var tgds []*logic.TGD
	for d := 0; d < depth; d++ {
		tgds = append(tgds, logic.MustTGD(
			[]logic.Atom{logic.NewAtom(fmt.Sprintf("p%d", d), logic.V("X"), logic.V("Y"))},
			[]logic.Atom{logic.NewAtom(fmt.Sprintf("p%d", d+1), logic.V("Y"), logic.V("Z"))}))
	}
	return s, tgds
}

// chaseTranscript canonicalizes a chase result: every fact in id order
// plus every derivation edge.
func chaseTranscript(res *Result) string {
	out := res.Store.String()
	for _, id := range res.Derived() {
		d := res.Prov[id]
		out += fmt.Sprintf("%d<=%s%v@%d\n", id, d.Rule.Label, d.Parents, d.HeadIdx)
	}
	return fmt.Sprintf("rounds=%d\n%s", res.Rounds, out)
}

// TestChaseDeterministicAcrossWorkers runs a multi-round, multi-rule,
// null-inventing chase at several worker counts and requires byte-identical
// results: same facts, same ids, same null labels, same provenance, same
// round count. The (rule, trigger) firing order pins ids and provenance,
// and coordinate-based null naming (store.NullForCoord) pins the labels.
func TestChaseDeterministicAcrossWorkers(t *testing.T) {
	withWorkers(t, 1)
	s, tgds := deepChainKB(t, 5, 4)
	base, err := Run(s, tgds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Prov) == 0 || base.Rounds < 2 {
		t.Fatalf("weak workload: %d derived in %d rounds", len(base.Prov), base.Rounds)
	}
	want := chaseTranscript(base)
	for _, w := range []int{2, 8} {
		par.SetWorkers(w)
		res, err := Run(s, tgds, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got := chaseTranscript(res); got != want {
			t.Errorf("workers=%d: chase transcript differs\n--- workers=1\n%s\n--- workers=%d\n%s", w, want, w, got)
		}
	}
}

// TestChaseRoundGaugeResets asserts the /statusz chase-round gauge is
// reset when a run completes — a finished process must read as idle, not
// stuck on the last run's final round.
func TestChaseRoundGaugeResets(t *testing.T) {
	s, tgds := deepChainKB(t, 3, 2)
	res, err := Run(s, tgds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds < 2 {
		t.Fatalf("rounds = %d, want >= 2 so the gauge was set mid-run", res.Rounds)
	}
	if got := gRound.Value(); got != 0 {
		t.Errorf("chase.round gauge = %d after run completion, want 0", got)
	}
}
