package chase

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"kbrepair/internal/logic"
	"kbrepair/internal/store"
)

// randomRuleKB draws a small weakly-acyclic KB over p/2, q/2, r/1 and
// s/1: base facts over three constants and two labeled nulls, TGDs with
// one- or two-atom bodies and heads (existential head variables
// included), and CDDs of one to three atoms. Heads and CDD bodies share
// predicates, so chases run several rounds and CDDs join on invented
// nulls.
func randomRuleKB(r *rand.Rand) (*store.Store, []*logic.TGD, []*logic.CDD, []logic.Term) {
	preds := []struct {
		name  string
		arity int
	}{{"p", 2}, {"q", 2}, {"r", 1}, {"s", 1}}
	terms := []logic.Term{logic.C("a"), logic.C("b"), logic.C("c"), logic.N("u1"), logic.N("u2")}
	vars := []logic.Term{logic.V("X"), logic.V("Y"), logic.V("Z")}
	atom := func(pool []logic.Term) logic.Atom {
		pd := preds[r.Intn(len(preds))]
		args := make([]logic.Term, pd.arity)
		for i := range args {
			args[i] = pool[r.Intn(len(pool))]
		}
		return logic.NewAtom(pd.name, args...)
	}
	s := store.New()
	for i, n := 0, 3+r.Intn(5); i < n; i++ {
		s.MustAdd(atom(terms))
	}
	var tgds []*logic.TGD
	for len(tgds) == 0 {
		for i, n := 0, 1+r.Intn(3); i < n; i++ {
			body := []logic.Atom{atom(vars)}
			if r.Intn(2) == 0 {
				body = append(body, atom(vars))
			}
			// Head variables: the body's, plus an existential W.
			headPool := append(logic.VarsOf(body), logic.V("W"))
			head := []logic.Atom{atom(headPool)}
			if r.Intn(3) == 0 {
				head = append(head, atom(headPool))
			}
			if t, err := logic.NewTGD(body, head); err == nil {
				tgds = append(tgds, t)
			}
		}
		if !IsWeaklyAcyclic(tgds).Acyclic {
			tgds = nil
		}
	}
	var cdds []*logic.CDD
	for len(cdds) == 0 {
		for i, n := 0, 1+r.Intn(2); i < n; i++ {
			body := make([]logic.Atom, 1+r.Intn(3))
			for j := range body {
				body[j] = atom(append(vars, logic.C("a")))
			}
			if c, err := logic.NewCDD(body); err == nil {
				cdds = append(cdds, c)
			}
		}
	}
	return s, tgds, cdds, terms
}

// Property: on a store saturated by Saturate without ⊥, ConsistentWith(a)
// returns the verdict of CheckConsistency-Opt run from scratch on the
// store plus a, and leaves the saturated store as it was. Under a small
// derivation budget it may instead return ErrBudget; its caller then falls
// back to the from-scratch check. The budget counts the saturation's
// derived facts, but the size of a restricted chase depends on its trigger
// order, so the from-scratch chase can run out of budget on a case the
// delta decides: the delta's verdict must then be the unbounded
// from-scratch one.
func TestIncrementalAgreesWithFromScratch(t *testing.T) {
	var decided, inconsistent, budgetHits, beyond int
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		base, tgds, cdds, terms := randomRuleKB(r)
		inc := NewIncremental(tgds, cdds, base)
		if inc == nil {
			return true
		}
		opts := Options{}
		if r.Intn(2) == 0 {
			opts.MaxDerived = 1 + r.Intn(6)
		}
		s := base.Clone()
		sat, ok, err := inc.Saturate(s, opts)
		if err != nil || !ok {
			return true
		}
		saturated := s.Clone()
		for k := 0; k < 6; k++ {
			// The added fact uses base terms only: a null the saturation
			// invented is not a term of the store plus a.
			args := make([]logic.Term, 1+r.Intn(2))
			for i := range args {
				args[i] = terms[r.Intn(len(terms))]
			}
			pred := map[int][]string{1: {"r", "s"}, 2: {"p", "q"}}[len(args)][r.Intn(2)]
			a := logic.NewAtom(pred, args...)
			got, err := inc.ConsistentWith(s, a, sat, opts)
			if !s.Equal(saturated) {
				t.Logf("seed %d: ConsistentWith(%s) left the saturated store changed", seed, a)
				return false
			}
			ext := base.Clone()
			ext.MustAdd(a)
			want, wantErr := IsConsistentOpt(ext, tgds, cdds, opts)
			switch {
			case errors.Is(err, ErrBudget):
				budgetHits++
			case err != nil:
				t.Logf("seed %d: ConsistentWith(%s): %v", seed, a, err)
				return false
			case wantErr != nil && !errors.Is(wantErr, ErrBudget):
				t.Logf("seed %d: ConsistentWith(%s) decided %v, but from scratch: %v", seed, a, got, wantErr)
				return false
			case wantErr != nil:
				beyond++
				ext.Truncate(base.Len() + 1)
				if want, err := IsConsistentOpt(ext, tgds, cdds, Options{}); err != nil || got != want {
					t.Logf("seed %d: ConsistentWith(%s) = %v past the from-scratch budget; unbounded from scratch %v (%v)", seed, a, got, want, err)
					return false
				}
			case got != want:
				t.Logf("seed %d: ConsistentWith(%s) = %v, from scratch %v\ntgds %v\ncdds %v\nbase %s", seed, a, got, want, tgds, cdds, base)
				return false
			default:
				decided++
				if !got {
					inconsistent++
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1500}); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d decided (%d inconsistent), %d budget fallbacks, %d decided past the from-scratch budget", decided, inconsistent, budgetHits, beyond)
	if decided < 500 || inconsistent < 100 || budgetHits < 20 {
		t.Fatalf("%d decided, %d inconsistent, %d budget fallbacks: too few for the property to mean anything", decided, inconsistent, budgetHits)
	}
}

// The delta names its invented nulls by firing coordinate, as the
// saturation does, so its first firing of a rule wants the label the
// saturation's first firing of that rule already holds. Reusing it would
// join q(a, W) and q(c, W) and fabricate a violation.
func TestIncrementalNullsNeverCollide(t *testing.T) {
	base := store.MustFromAtoms([]logic.Atom{
		logic.NewAtom("p", logic.C("a")),
		logic.NewAtom("r", logic.C("a")),
		logic.NewAtom("s", logic.C("c")),
	})
	tgds := []*logic.TGD{logic.MustTGD(
		[]logic.Atom{logic.NewAtom("p", logic.V("X"))},
		[]logic.Atom{logic.NewAtom("q", logic.V("X"), logic.V("W"))},
	)}
	cdds := []*logic.CDD{logic.MustCDD([]logic.Atom{
		logic.NewAtom("q", logic.V("X"), logic.V("W")),
		logic.NewAtom("q", logic.V("Y"), logic.V("W")),
		logic.NewAtom("r", logic.V("X")),
		logic.NewAtom("s", logic.V("Y")),
	})}
	inc := NewIncremental(tgds, cdds, base)
	s := base.Clone()
	sat, ok, err := inc.Saturate(s, Options{})
	if err != nil || !ok {
		t.Fatalf("saturation: consistent=%v, %v", ok, err)
	}
	got, err := inc.ConsistentWith(s, logic.NewAtom("p", logic.C("c")), sat, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !got {
		t.Error("the delta's invented null joined the saturation's: fabricated violation")
	}
}

// The delta's budget counts the saturation's use: on p(X) → q(X),
// q(X) → r(X) the saturation of {p(a)} derives 2 facts in 3 rounds and the
// delta from p(b) 2 more in 3 rounds, so it needs MaxDerived 4 and
// MaxRounds 6, and returns ErrBudget one below either.
func TestIncrementalBudgetCountsSaturation(t *testing.T) {
	base := store.MustFromAtoms([]logic.Atom{logic.NewAtom("p", logic.C("a"))})
	tgds := []*logic.TGD{
		logic.MustTGD([]logic.Atom{logic.NewAtom("p", logic.V("X"))}, []logic.Atom{logic.NewAtom("q", logic.V("X"))}),
		logic.MustTGD([]logic.Atom{logic.NewAtom("q", logic.V("X"))}, []logic.Atom{logic.NewAtom("r", logic.V("X"))}),
	}
	cdds := []*logic.CDD{logic.MustCDD([]logic.Atom{
		logic.NewAtom("r", logic.V("X")), logic.NewAtom("s", logic.V("X")),
	})}
	inc := NewIncremental(tgds, cdds, base)
	for _, tc := range []struct {
		opts   Options
		budget bool
	}{
		{Options{MaxDerived: 4}, false},
		{Options{MaxDerived: 3}, true},
		{Options{MaxRounds: 6}, false},
		{Options{MaxRounds: 5}, true},
	} {
		s := base.Clone()
		sat, ok, err := inc.Saturate(s, tc.opts)
		if err != nil || !ok || sat != (Saturation{Derived: 2, Rounds: 3}) {
			t.Fatalf("%+v: saturation %+v, consistent=%v, %v", tc.opts, sat, ok, err)
		}
		got, err := inc.ConsistentWith(s, logic.NewAtom("p", logic.C("b")), sat, tc.opts)
		if tc.budget != errors.Is(err, ErrBudget) || (!tc.budget && (err != nil || !got)) {
			t.Errorf("%+v: ConsistentWith = %v, %v; want ErrBudget=%v", tc.opts, got, err, tc.budget)
		}
	}
}
