package homo

import (
	"kbrepair/internal/logic"
	"kbrepair/internal/store"
)

// Pinned is the pinned-seed search over a list of rule bodies, the search
// behind §5's UpdateConflicts. After one fact is added or changed, every
// body homomorphism the change created maps some body atom onto that fact,
// so re-checking means binding each body atom that can map onto the fact
// and searching the rest of the body from there — never re-scanning whole
// bodies. The conflict tracker and the Π-checker run it over CDD bodies;
// the chase's semi-naive delta runs it over TGD and CDD bodies.
type Pinned struct {
	bodies [][]logic.Atom
	// byPred maps a predicate name to the indexes of the bodies mentioning
	// it (the Σ_C^A of §5, at predicate granularity).
	byPred map[string][]int
	// plans[bi][ai] is the compiled body-minus-atom-ai conjunction of body
	// bi, resolved once so the hot path never touches a memo. Plans are
	// seed-specialized: the pinned atom's variables are pre-bound slots, so
	// the orderer costs the rest-conjunction under the bindings every
	// pinned search actually starts with.
	plans [][]*Plan
}

// NewPinned prepares the pinned-seed search for the bodies, owners[i]
// owning bodies[i]. The plans are kept in the owners' memos under
// TagPinned+ai, compiled against stats if they are not there yet.
func NewPinned(owners []Owner, bodies [][]logic.Atom, stats *store.Store) *Pinned {
	p := &Pinned{bodies: bodies, byPred: make(map[string][]int), plans: make([][]*Plan, len(bodies))}
	for i, body := range bodies {
		seen := make(map[string]bool)
		for _, a := range body {
			if !seen[a.Pred] {
				seen[a.Pred] = true
				p.byPred[a.Pred] = append(p.byPred[a.Pred], i)
			}
		}
		p.plans[i] = make([]*Plan, len(body))
		for ai := range body {
			rest := make([]logic.Atom, 0, len(body)-1)
			for j, a := range body {
				if j != ai {
					rest = append(rest, a)
				}
			}
			var pre []logic.Term
			for _, arg := range body[ai].Args {
				if arg.IsVar() && !containsTerm(pre, arg) {
					pre = append(pre, arg)
				}
			}
			p.plans[i][ai] = CachedPlanWith(CacheKey{Owner: owners[i], Tag: TagPinned + ai}, rest,
				CompileOpts{Stats: stats, Prebound: pre})
		}
	}
	return p
}

// Seeds visits every way fact id of s can seed a search: for each body bi
// mentioning the fact's predicate and each of its atoms ai that maps onto
// the fact, fn gets the pinned atom's bindings and the plan of the rest of
// the body. The search itself is fn's to run (plan.ExistsSeeded or
// plan.ForEachSeeded from seed); fn returns false to stop the visit.
func (p *Pinned) Seeds(s *store.Store, id store.FactID, fn func(bi, ai int, seed logic.Subst, plan *Plan) bool) {
	atom := s.FactRef(id)
	for _, bi := range p.byPred[atom.Pred] {
		for ai, ba := range p.bodies[bi] {
			if ba.Pred != atom.Pred || len(ba.Args) != len(atom.Args) {
				continue
			}
			seed, ok := bindAtom(ba, atom)
			if !ok {
				continue
			}
			if !fn(bi, ai, seed, p.plans[bi][ai]) {
				return
			}
		}
	}
}

// bindAtom unifies a body atom pattern against a ground fact, returning the
// induced variable bindings, or false if they are incompatible.
func bindAtom(pattern, fact logic.Atom) (logic.Subst, bool) {
	sub := logic.NewSubst()
	for i, pt := range pattern.Args {
		ft := fact.Args[i]
		if pt.IsVar() {
			if cur, ok := sub[pt]; ok {
				if cur != ft {
					return nil, false
				}
				continue
			}
			sub[pt] = ft
			continue
		}
		if pt != ft {
			return nil, false
		}
	}
	return sub, true
}

func containsTerm(ts []logic.Term, t logic.Term) bool {
	for _, x := range ts {
		if x == t {
			return true
		}
	}
	return false
}
