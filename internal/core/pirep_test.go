package core

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"kbrepair/internal/chase"
	"kbrepair/internal/logic"
	"kbrepair/internal/store"
)

// example37 builds the KB of Example 3.7: F = {p(a,b), q(b,d)},
// ΣC = {p(X,Y), q(Y,Z) → ⊥}, empty ΣT.
func example37(t testing.TB) *KB {
	t.Helper()
	s := store.MustFromAtoms([]logic.Atom{
		logic.NewAtom("p", logic.C("a"), logic.C("b")),
		logic.NewAtom("q", logic.C("b"), logic.C("d")),
	})
	cdd := logic.MustCDD([]logic.Atom{
		logic.NewAtom("p", logic.V("X"), logic.V("Y")),
		logic.NewAtom("q", logic.V("Y"), logic.V("Z")),
	})
	return MustKB(s, nil, []*logic.CDD{cdd})
}

func TestPiRepairableExample37(t *testing.T) {
	kb := example37(t)
	// Π = ∅ → repairable.
	ok, err := PiRepairable(kb, NewPi())
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("Π=∅ should always be repairable")
	}
	// Π = {(p(a,b),2), (q(b,d),1)} → NOT repairable (join pinned on b).
	pi := NewPi(
		Position{Fact: 0, Arg: 1},
		Position{Fact: 1, Arg: 0},
	)
	ok, err = PiRepairable(kb, pi)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("pinned join should make KB not Π-repairable")
	}
	// Pinning only one side keeps it repairable.
	ok, err = PiRepairable(kb, NewPi(Position{Fact: 0, Arg: 1}))
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("one-sided pin wrongly unrepairable")
	}
	// Naive and optimized agree.
	for _, testPi := range []Pi{NewPi(), pi, NewPi(Position{Fact: 0, Arg: 1})} {
		o1, _ := PiRepairable(kb, testPi)
		o2, _ := PiRepairableNaive(kb, testPi)
		if o1 != o2 {
			t.Errorf("opt/naive disagree on Π=%v: %v vs %v", testPi, o1, o2)
		}
	}
}

func TestPiRepairabilityFullPiIsConsistencyCheck(t *testing.T) {
	kb := example37(t)
	// Π = pos(F) on an inconsistent KB → not Π-repairable.
	pi := NewPi(kb.Facts.Positions()...)
	ok, err := PiRepairable(kb, pi)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("full Π on inconsistent KB reported repairable")
	}
	// Repair, then full Π must be repairable (= consistent).
	kb.Facts.MustSetValue(Position{Fact: 0, Arg: 1}, logic.C("z"))
	ok, err = PiRepairable(kb, NewPi(kb.Facts.Positions()...))
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("full Π on consistent KB reported unrepairable")
	}
}

func TestPiRepairableWithTGDInteraction(t *testing.T) {
	// p(a) with TGD p(X) → q(X) and CDD q(X), r(X) → ⊥, plus r(a).
	// Pinning both p(a)@1 and r(a)@1 makes the KB not Π-repairable: the TGD
	// regenerates q(a) no matter what.
	s := store.MustFromAtoms([]logic.Atom{
		logic.NewAtom("p", logic.C("a")),
		logic.NewAtom("r", logic.C("a")),
	})
	kb := MustKB(s,
		[]*logic.TGD{logic.MustTGD(
			[]logic.Atom{logic.NewAtom("p", logic.V("X"))},
			[]logic.Atom{logic.NewAtom("q", logic.V("X"))},
		)},
		[]*logic.CDD{logic.MustCDD([]logic.Atom{
			logic.NewAtom("q", logic.V("X")),
			logic.NewAtom("r", logic.V("X")),
		})},
	)
	pi := NewPi(Position{Fact: 0, Arg: 0}, Position{Fact: 1, Arg: 0})
	ok, err := PiRepairable(kb, pi)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("TGD-propagated pin reported repairable")
	}
	// Unpinning the r fact restores repairability.
	ok, err = PiRepairable(kb, NewPi(Position{Fact: 0, Arg: 0}))
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("partial pin reported unrepairable")
	}
}

func TestPiHelpers(t *testing.T) {
	p1 := Position{Fact: 0, Arg: 0}
	p2 := Position{Fact: 1, Arg: 1}
	pi := NewPi(p1)
	if !pi.Has(p1) || pi.Has(p2) {
		t.Error("Has wrong")
	}
	pi2 := pi.With(p2)
	if !pi2.Has(p2) || pi.Has(p2) {
		t.Error("With not copy-on-write")
	}
	c := pi.Clone()
	c.Add(p2)
	if pi.Has(p2) {
		t.Error("Clone shares storage")
	}
}

func TestPiCheckerFastPathNull(t *testing.T) {
	kb := example37(t)
	pc := NewPiChecker(kb)
	f := Fix{Pos: Position{Fact: 0, Arg: 1}, Value: kb.Facts.FreshNull()}
	ok, err := pc.CheckWithFix(NewPi(), f)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("fresh null fix rejected")
	}
	if pc.FastHits != 1 || pc.FullChecks != 0 {
		t.Errorf("fast=%d full=%d, want 1/0", pc.FastHits, pc.FullChecks)
	}
	// A null already in the store is NOT fast-safe.
	kb.Facts.MustAdd(logic.NewAtom("p", logic.N("used"), logic.C("k")))
	f2 := Fix{Pos: Position{Fact: 0, Arg: 1}, Value: logic.N("used")}
	_, err = pc.CheckWithFix(NewPi(), f2)
	if err != nil {
		t.Fatal(err)
	}
	if pc.FullChecks != 1 {
		t.Error("reused null took the fast path")
	}
}

func TestPiCheckerFastPathConstant(t *testing.T) {
	kb := example37(t)
	pc := NewPiChecker(kb)
	// A constant that appears nowhere in Π values nor in the rules is safe.
	f := Fix{Pos: Position{Fact: 0, Arg: 1}, Value: logic.C("unicorn")}
	ok, err := pc.CheckWithFix(NewPi(), f)
	if err != nil {
		t.Fatal(err)
	}
	if !ok || pc.FastHits != 1 {
		t.Errorf("unused constant not fast-accepted (ok=%v fast=%d)", ok, pc.FastHits)
	}
	// The same constant sitting at a Π position forces a full check, and
	// here it creates the join p(·,unicorn), q(unicorn,·): unrepairable.
	kb.Facts.MustSetValue(Position{Fact: 1, Arg: 0}, logic.C("unicorn"))
	pi := NewPi(Position{Fact: 1, Arg: 0})
	ok, err = pc.CheckWithFix(pi, f)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("joining constant accepted")
	}
	if pc.FullChecks == 0 {
		t.Error("joining constant took the fast path")
	}
}

func TestPiCheckerConstantInRulesForcesFullCheck(t *testing.T) {
	// CDD mentions constant "bad": fixing any position to "bad" cannot take
	// the fast path.
	s := store.MustFromAtoms([]logic.Atom{
		logic.NewAtom("p", logic.C("x")),
	})
	kb := MustKB(s, nil, []*logic.CDD{logic.MustCDD([]logic.Atom{
		logic.NewAtom("p", logic.C("bad")),
	})})
	pc := NewPiChecker(kb)
	f := Fix{Pos: Position{Fact: 0, Arg: 0}, Value: logic.C("bad")}
	ok, err := pc.CheckWithFix(NewPi(), f)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("rule-constant fix accepted although it violates the CDD")
	}
	if pc.FastHits != 0 {
		t.Error("rule constant took the fast path")
	}
}

// Property: the optimized Π-checker agrees with the ground-truth Algorithm 1
// on random single-fix checks over random small KBs.
func TestPiCheckerAgreesWithAlgorithm1(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		consts := []logic.Term{logic.C("a"), logic.C("b"), logic.C("c")}
		s := store.New()
		for i := 0; i < 6; i++ {
			s.MustAdd(logic.NewAtom("p", consts[r.Intn(3)], consts[r.Intn(3)]))
		}
		for i := 0; i < 3; i++ {
			s.MustAdd(logic.NewAtom("q", consts[r.Intn(3)]))
		}
		cdds := []*logic.CDD{
			logic.MustCDD([]logic.Atom{
				logic.NewAtom("p", logic.V("X"), logic.V("Y")),
				logic.NewAtom("q", logic.V("Y")),
			}),
			logic.MustCDD([]logic.Atom{logic.NewAtom("p", logic.V("X"), logic.V("X"))}),
		}
		var tgds []*logic.TGD
		if r.Intn(2) == 0 {
			tgds = append(tgds, logic.MustTGD(
				[]logic.Atom{logic.NewAtom("q", logic.V("X"))},
				[]logic.Atom{logic.NewAtom("p", logic.V("X"), logic.V("X"))},
			))
		}
		kb := MustKB(s, tgds, cdds)
		pc := NewPiChecker(kb)

		pi := NewPi()
		for i := 0; i < 3; i++ {
			ps := kb.Facts.Positions()
			pi.Add(ps[r.Intn(len(ps))])
		}
		ps := kb.Facts.Positions()
		pos := ps[r.Intn(len(ps))]
		var v logic.Term
		switch r.Intn(3) {
		case 0:
			v = kb.Facts.FreshNull()
		case 1:
			v = consts[r.Intn(3)]
		default:
			v = logic.C("zz")
		}
		fx := Fix{Pos: pos, Value: v}

		// The fast path presumes the Algorithm 2 loop invariant that K is
		// Π-repairable; skip generated states where it does not hold.
		if ok, err := PiRepairable(kb, pi); err != nil || !ok {
			return err == nil
		}

		got, err := pc.CheckWithFix(pi, fx)
		if err != nil {
			return false
		}
		// Ground truth: apply the fix, run Algorithm 1 with Π ∪ {pos}.
		kb2 := kb.Clone()
		kb2.Facts.MustSetValue(pos, v)
		want, err := PiRepairable(kb2, pi.With(pos))
		if err != nil {
			return false
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestNulledCopyLabelCollision is a regression test: the Algorithm 1
// instance must never hold a null whose label collides with a null sitting
// at a Π position (or handed out as a candidate fix value) — a collision
// fabricates joins and flips the answer. The checker keeps its instance
// across batches while kb.Facts keeps minting nulls, so the check spans
// many batches with fresh kb.Facts nulls pinned in between.
func TestNulledCopyLabelCollision(t *testing.T) {
	s := store.MustFromAtoms([]logic.Atom{
		logic.NewAtom("p", logic.C("a"), logic.N("n1")),
		logic.NewAtom("q", logic.C("c"), logic.C("d")),
	})
	cdd := logic.MustCDD([]logic.Atom{
		logic.NewAtom("p", logic.V("X"), logic.V("Y")),
		logic.NewAtom("q", logic.V("Y"), logic.V("Z")),
	})
	kb := MustKB(s, nil, []*logic.CDD{cdd})
	// Pin the _:n1 position: with a colliding fresh null at q's first
	// argument the CDD body would spuriously match.
	pinned := Position{Fact: 0, Arg: 1}
	pi := NewPi(pinned)
	ok, err := PiRepairable(kb, pi)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("label collision fabricated a join: Π-repairable KB reported unrepairable")
	}
	// Same through the checker's full-check path: the fix value "x" occurs
	// nowhere, but the fast path is off, forcing a full check. The fix is
	// at q's second argument, so q's first keeps its instance null.
	pc := NewPiChecker(kb)
	pc.Optimized = false
	fix := Fix{Pos: Position{Fact: 1, Arg: 1}, Value: logic.C("x")}
	for batch := 0; batch < 20; batch++ {
		got, err := pc.CheckWithFix(pi, fix)
		if err != nil {
			t.Fatal(err)
		}
		if !got {
			t.Fatalf("batch %d: full check fabricated a join under pinned null %s", batch, kb.Facts.Value(pinned))
		}
		// Between questions kb.Facts mints a candidate-fix null, and the
		// answer pins it: over the batches the pinned value walks through
		// the labels FreshNull hands out after the instance was built.
		kb.Facts.MustSetValue(pinned, kb.Facts.FreshNull())
	}
}

// Property: one long-lived PiChecker, driven through random sequences of Π
// additions and removals, value updates at Π positions, kb.Facts null
// minting and batch checks, returns on every fix the verdict of Algorithm 1
// recomputed from scratch on apply(F, {f}) with Π ∪ {f.Pos}, and fails a
// batch only when some fix's from-scratch check fails. It runs on
// CDD-only KBs (the pinned CDD search) and on KBs whose TGDs feed the CDDs
// (the semi-naive delta from a once-chased instance), the latter also with
// a derivation budget small enough that the batch chase, the delta or the
// from-scratch check runs out of it. Fixes land at Π positions too (the
// full-check fallback). The TGDs include existential heads, one of them
// multi-atom, and a CDD that joins two r facts on their invented null: a
// delta null reusing a label of the batch chase would fabricate that join.
// The checks must never change kb.Facts.
func TestPersistentPiCheckerAgreesWithAlgorithm1(t *testing.T) {
	variants := []struct {
		name           string
		withTGDs, tiny bool
	}{{"cdd-only", false, false}, {"tgds", true, false}, {"tgds-budget", true, true}}
	for _, vt := range variants {
		withTGDs := vt.withTGDs
		var budgetHits int
		f := func(seed int64) bool {
			r := rand.New(rand.NewSource(seed))
			consts := []logic.Term{logic.C("a"), logic.C("b"), logic.C("c")}
			s := store.New()
			for i := 0; i < 6; i++ {
				s.MustAdd(logic.NewAtom("p", consts[r.Intn(3)], consts[r.Intn(3)]))
			}
			for i := 0; i < 3; i++ {
				s.MustAdd(logic.NewAtom("q", consts[r.Intn(3)]))
			}
			cdds := []*logic.CDD{
				logic.MustCDD([]logic.Atom{
					logic.NewAtom("p", logic.V("X"), logic.V("Y")),
					logic.NewAtom("q", logic.V("Y")),
				}),
				logic.MustCDD([]logic.Atom{logic.NewAtom("p", logic.V("X"), logic.V("X"))}),
			}
			var tgds []*logic.TGD
			if withTGDs {
				for i := 0; i < 2; i++ {
					s.MustAdd(logic.NewAtom("s", consts[r.Intn(3)]))
				}
				cdds = append(cdds,
					logic.MustCDD([]logic.Atom{
						logic.NewAtom("r", logic.V("X"), logic.V("Y")),
						logic.NewAtom("p", logic.V("Y"), logic.V("X")),
					}),
					logic.MustCDD([]logic.Atom{
						logic.NewAtom("r", logic.V("X"), logic.V("Z")),
						logic.NewAtom("r", logic.V("Y"), logic.V("Z")),
						logic.NewAtom("q", logic.V("X")),
						logic.NewAtom("s", logic.V("Y")),
					}),
					logic.MustCDD([]logic.Atom{
						logic.NewAtom("w", logic.V("X"), logic.V("Y")),
						logic.NewAtom("s", logic.V("Y")),
					}))
				// Existential heads: the chases invent nulls, named by
				// firing coordinate in the batch chase and the delta alike.
				tgds = []*logic.TGD{
					logic.MustTGD(
						[]logic.Atom{logic.NewAtom("q", logic.V("X"))},
						[]logic.Atom{logic.NewAtom("p", logic.V("X"), logic.V("Y"))},
					),
					logic.MustTGD(
						[]logic.Atom{logic.NewAtom("p", logic.V("X"), logic.V("Y"))},
						[]logic.Atom{logic.NewAtom("r", logic.V("Y"), logic.V("Z"))},
					),
					logic.MustTGD(
						[]logic.Atom{logic.NewAtom("r", logic.V("X"), logic.V("Y")), logic.NewAtom("q", logic.V("X"))},
						[]logic.Atom{logic.NewAtom("w", logic.V("Y"), logic.V("Z")), logic.NewAtom("w", logic.V("Z"), logic.V("X"))},
					),
				}
			}
			kb := MustKB(s, tgds, cdds)
			if vt.tiny {
				kb.ChaseOpts.MaxDerived = 1 + r.Intn(24)
			}
			pc := NewPiChecker(kb)
			if (pc.pin == nil) != withTGDs || (pc.inc == nil) == withTGDs {
				t.Fatalf("withTGDs=%v but pinned search present=%v, delta chase present=%v", withTGDs, pc.pin != nil, pc.inc != nil)
			}
			ps := kb.Facts.Positions()
			var minted []logic.Term
			value := func() logic.Term {
				switch k := r.Intn(5); {
				case k < 2:
					return consts[r.Intn(3)]
				case k == 2 && len(minted) > 0:
					return minted[r.Intn(len(minted))]
				case k == 3:
					return logic.C("zz")
				default:
					v := kb.Facts.FreshNull()
					minted = append(minted, v)
					return v
				}
			}
			pi := NewPi()
			for step := 0; step < 30; step++ {
				switch r.Intn(6) {
				case 0:
					pi.Add(ps[r.Intn(len(ps))])
				case 1:
					for _, p := range ps {
						if pi.Has(p) && r.Intn(2) == 0 {
							delete(pi, p)
							break
						}
					}
				case 2:
					// An answer: a value update at a pinned position.
					for _, p := range ps {
						if pi.Has(p) {
							kb.Facts.MustSetValue(p, value())
							break
						}
					}
				case 3:
					minted = append(minted, kb.Facts.FreshNull())
				default:
					fixes := make([]Fix, 1+r.Intn(4))
					for i := range fixes {
						fixes[i] = Fix{Pos: ps[r.Intn(len(ps))], Value: value()}
					}
					// The fast path presumes the Algorithm 2 invariant that K
					// is Π-repairable; without it, only full checks apply.
					// It never reaches a chase, so the budget variant keeps
					// it off: every fix must meet the budget as Algorithm 1
					// would.
					rep, err := PiRepairable(kb, pi)
					if err != nil && !errors.Is(err, chase.ErrBudget) {
						t.Fatal(err)
					}
					pc.Optimized = !vt.tiny && rep && r.Intn(2) == 0
					before := kb.Facts.Clone()
					got, gotErr := pc.CheckBatch(pi, fixes)
					if !kb.Facts.Equal(before) {
						t.Log("CheckBatch changed kb.Facts")
						return false
					}
					var wantErr error
					want := make([]bool, len(fixes))
					wantErrs := make([]error, len(fixes))
					for i, fx := range fixes {
						kb2 := kb.Clone()
						kb2.Facts.MustSetValue(fx.Pos, fx.Value)
						want[i], wantErrs[i] = PiRepairable(kb2, pi.With(fx.Pos))
						if wantErrs[i] != nil && wantErr == nil {
							wantErr = wantErrs[i]
						}
					}
					if gotErr != nil {
						if wantErr == nil || !errors.Is(gotErr, chase.ErrBudget) {
							t.Logf("step %d: fixes %v under Π=%v: CheckBatch error %v, from scratch %v", step, fixes, pi, gotErr, wantErr)
							return false
						}
						budgetHits++
						continue
					}
					if wantErr != nil && !errors.Is(wantErr, chase.ErrBudget) {
						t.Fatal(wantErr)
					}
					for i, fx := range fixes {
						if wantErrs[i] != nil {
							// A delta can decide a fix whose from-scratch chase runs
							// out of budget (a restricted chase's size depends on
							// its trigger order); its verdict must be the
							// unbounded one.
							kb2 := kb.Clone()
							kb2.ChaseOpts.MaxDerived = 0
							kb2.Facts.MustSetValue(fx.Pos, fx.Value)
							if want[i], err = PiRepairable(kb2, pi.With(fx.Pos)); err != nil {
								t.Fatal(err)
							}
						}
						if got[i] != want[i] {
							t.Logf("step %d: fix %s under Π=%v: got %v, want %v", step, fx, pi, got[i], want[i])
							return false
						}
					}
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
			t.Errorf("%s: %v", vt.name, err)
		}
		if vt.tiny && budgetHits == 0 {
			t.Errorf("%s: no batch ran out of budget; the budget variant tests nothing", vt.name)
		}
	}
}

// A fix at a Π position falls back to the full check: the semi-naive delta
// presumes the fix position holds a null that occurs nowhere else, and a
// Π position holds its source value. Appending the fixed copy p(_, c) next
// to p(_, b) would join the two on their shared first argument and report
// the violation q(b), r(c) that apply(F, {f}) does not have.
func TestPiCheckerFixAtPiPosition(t *testing.T) {
	s := store.MustFromAtoms([]logic.Atom{
		logic.NewAtom("p", logic.C("a"), logic.C("b")),
		logic.NewAtom("q", logic.C("b")),
		logic.NewAtom("r", logic.C("c")),
	})
	kb := MustKB(s,
		// A TGD the CDDs depend on, so the checker takes the delta path.
		[]*logic.TGD{logic.MustTGD(
			[]logic.Atom{logic.NewAtom("p", logic.V("X"), logic.V("Y"))},
			[]logic.Atom{logic.NewAtom("m", logic.V("X"))},
		)},
		[]*logic.CDD{
			logic.MustCDD([]logic.Atom{
				logic.NewAtom("p", logic.V("X"), logic.V("Y")),
				logic.NewAtom("p", logic.V("X"), logic.V("Z")),
				logic.NewAtom("q", logic.V("Y")),
				logic.NewAtom("r", logic.V("Z")),
			}),
			logic.MustCDD([]logic.Atom{
				logic.NewAtom("m", logic.V("X")),
				logic.NewAtom("u", logic.V("X")),
			}),
		})
	pi := NewPi(Position{Fact: 0, Arg: 1}, Position{Fact: 1, Arg: 0}, Position{Fact: 2, Arg: 0})
	fix := Fix{Pos: Position{Fact: 0, Arg: 1}, Value: logic.C("c")}
	kb2 := kb.Clone()
	kb2.Facts.MustSetValue(fix.Pos, fix.Value)
	want, err := PiRepairable(kb2, pi.With(fix.Pos))
	if err != nil || !want {
		t.Fatalf("ground truth: %v, %v; want repairable", want, err)
	}
	pc := NewPiChecker(kb)
	pc.Optimized = false
	if got, err := pc.CheckWithFix(pi, fix); err != nil || !got {
		t.Errorf("CheckWithFix = %v, %v; want true", got, err)
	}
}
