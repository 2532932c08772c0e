package chase

import (
	"fmt"

	"kbrepair/internal/homo"
	"kbrepair/internal/logic"
	"kbrepair/internal/obs"
	"kbrepair/internal/store"
)

// Incremental is CheckConsistency-Opt for a stream of one-fact additions
// to the same store: chase the store once (Saturate), then decide each
// addition by a semi-naive chase from the added fact alone
// (ConsistentWith) — the delta half of delete-and-rederive. It serves
// Boolean verdicts only: the delta's trigger order differs from
// chaseLoop's, so its derived facts are not the ones Run would produce,
// but consistency does not depend on the order.
type Incremental struct {
	// tgds are the TGDs relevant to the CDDs; rules are tgds followed by
	// the CDDs' ⊥-rules (the rule set of Saturate).
	tgds  []*logic.TGD
	rules []*logic.TGD
	front [][]logic.Term
	exist [][]logic.Term
	heads []*homo.Plan
	// seeds searches the TGD bodies (indexes below len(tgds)) and then the
	// CDD bodies pinned at one fact.
	seeds *homo.Pinned
}

// Saturation is what Saturate used of the chase budget. ConsistentWith
// counts it together with its own use against the same limits.
type Saturation struct {
	Derived int
	Rounds  int
}

// NewIncremental prepares the incremental check for the CDDs under the
// TGDs, compiling its plans against stats if they are not in the rules'
// memos yet. It returns nil when no TGD is relevant to the CDDs: then a
// fact addition is decided by a pinned CDD search alone (conflict.Pinned).
func NewIncremental(tgds []*logic.TGD, cdds []*logic.CDD, stats *store.Store) *Incremental {
	tgds = RelevantTGDs(tgds, cdds)
	if len(tgds) == 0 {
		return nil
	}
	in := &Incremental{
		tgds:  tgds,
		rules: append(append([]*logic.TGD(nil), tgds...), CompileBottom(cdds)...),
		front: make([][]logic.Term, len(tgds)),
		exist: make([][]logic.Term, len(tgds)),
		heads: make([]*homo.Plan, len(tgds)),
	}
	owners := make([]homo.Owner, 0, len(tgds)+len(cdds))
	bodies := make([][]logic.Atom, 0, len(tgds)+len(cdds))
	for i, r := range tgds {
		in.front[i] = r.FrontierVars()
		in.exist[i] = r.ExistentialVars()
		in.heads[i] = homo.CachedPlanWith(homo.CacheKey{Owner: r, Tag: homo.TagHead}, r.Head,
			homo.CompileOpts{Stats: stats, Prebound: in.front[i]})
		owners, bodies = append(owners, r), append(bodies, r.Body)
	}
	for _, c := range cdds {
		owners, bodies = append(owners, c), append(bodies, c.Body)
	}
	in.seeds = homo.NewPinned(owners, bodies, stats)
	return in
}

// Saturate chases s in place with the relevant TGDs and the ⊥-rules,
// stopping at the first ⊥, and reports whether the chase ended without
// one. The derived facts stay in s: the caller rolls them back with
// s.Truncate once it is done with the saturated store.
func (in *Incremental) Saturate(s *store.Store, opts Options) (Saturation, bool, error) {
	res, err := run(s, in.rules, opts, BottomPred)
	sat := Saturation{Derived: len(res.Prov), Rounds: res.Rounds}
	if err != nil {
		return sat, false, err
	}
	return sat, len(s.ByPredicate(BottomPred)) == 0, nil
}

// ConsistentWith reports whether s stays consistent when fact a is added.
// s must be the saturated, ⊥-free store a Saturate call returned sat for.
// It appends a and chases semi-naively from it: each round binds every
// body atom of every rule to each fact the previous round added (a first)
// and searches the rest of the body in s, so only triggers that use a new
// fact are found — every other trigger was satisfied by the saturation —
// and the first CDD match on a new fact stops the chase. s is truncated
// back to its length at entry before ConsistentWith returns.
//
// The budget counts sat too: ErrBudget when sat.Derived plus the facts the
// delta derives exceed MaxDerived, or sat.Rounds plus its rounds exceed
// MaxRounds. A caller that needs a from-scratch check's errors falls back
// to one on ErrBudget. The converse does not hold exactly: a restricted
// chase's size depends on its trigger order, so a from-scratch chase can
// run out of budget where ConsistentWith decides (DESIGN.md §3).
func (in *Incremental) ConsistentWith(s *store.Store, a logic.Atom, sat Saturation, opts Options) (bool, error) {
	mark := s.Len()
	defer s.Truncate(mark)
	id, err := s.Add(a)
	if err != nil {
		return false, err
	}
	delta := []store.FactID{id}
	derived := sat.Derived
	nt := len(in.tgds)
	perRule := make([][]logic.Subst, nt)
	for round := 1; len(delta) > 0; round++ {
		if sat.Rounds+round > opts.maxRounds() {
			return false, fmt.Errorf("%w: more than %d rounds", ErrBudget, opts.maxRounds())
		}
		mRounds.Inc()
		for ri := range perRule {
			perRule[ri] = perRule[ri][:0]
		}
		for _, d := range delta {
			bottom := false
			in.seeds.Seeds(s, d, func(bi, ai int, seed logic.Subst, plan *homo.Plan) bool {
				if bi >= nt {
					bottom = plan.ExistsSeeded(s, seed)
					return !bottom
				}
				plan.ForEachSeeded(s, seed, func(m homo.Match) bool {
					fr := make(logic.Subst, len(in.front[bi]))
					for _, v := range in.front[bi] {
						if t, ok := seed[v]; ok {
							fr[v] = t
						} else {
							fr[v] = m.Subst[v]
						}
					}
					perRule[bi] = append(perRule[bi], fr)
					return true
				})
				return true
			})
			if bottom {
				return false, nil
			}
		}
		var next []store.FactID
		for ri, trigs := range perRule {
			r := in.tgds[ri]
			rid := obs.None
			if len(trigs) > 0 {
				rid = ruleAttrID(r)
			}
			for ti, inst := range trigs {
				mTriggers.AddFor(rid, 1)
				if in.heads[ri].ExistsSeeded(s, inst) {
					continue
				}
				if opts.maxDerived()-derived < len(r.Head) {
					return false, ErrBudget
				}
				for x, z := range in.exist[ri] {
					inst[z] = s.NullForCoord(round, ri, ti, x)
				}
				atoms := make([]logic.Atom, len(r.Head))
				for i, h := range r.Head {
					atoms[i] = inst.Apply(h)
				}
				ids, err := s.AddBatch(atoms)
				if err != nil {
					return false, fmt.Errorf("chase: firing %s: %w", r, err)
				}
				mFirings.AddFor(rid, 1)
				mNulls.Add(int64(len(in.exist[ri])))
				mDerived.AddFor(rid, int64(len(ids)))
				derived += len(ids)
				next = append(next, ids...)
			}
		}
		delta = next
	}
	return true, nil
}
