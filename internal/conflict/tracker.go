package conflict

import (
	"sort"

	"kbrepair/internal/homo"
	"kbrepair/internal/logic"
	"kbrepair/internal/obs"
	"kbrepair/internal/par"
	"kbrepair/internal/store"
)

// Tracker maintains the set of naive conflicts of a mutable store under
// position updates — the UpdateConflicts optimization of §5. Instead of
// re-evaluating every CDD after each fix, it removes the conflicts touching
// the updated fact and re-evaluates only the CDDs whose bodies can map an
// atom onto the updated fact.
type Tracker struct {
	base      *store.Store
	cdds      []*logic.CDD
	conflicts map[string]*Conflict
	byFact    map[store.FactID]map[string]bool
	// ordered/orderedKeys hold the live conflicts sorted by key, maintained
	// incrementally by binary-search insertion and removal — the keyed merge
	// that replaced re-sorting the whole set on every Conflicts call. Keys
	// are computed once at insertion (Conflict.Key formats a string) and
	// kept parallel to the conflicts.
	ordered     []*Conflict
	orderedKeys []string
	// byPred maps a predicate name to the indexes of CDDs mentioning it in
	// their body (the Σ_C^A of §5, at predicate granularity).
	byPred map[string][]int
	// pinPlans[ci][ai] is the compiled body-minus-atom-ai conjunction of
	// CDD ci, precomputed so Update's hot path never touches the plan
	// cache. Plans are seed-specialized: the pinned atom's variables are
	// pre-bound slots, so the orderer costs the rest-conjunction under the
	// bindings every pinned search actually starts with.
	pinPlans [][]*homo.Plan
}

// NewTracker computes the initial naive conflicts of the store and prepares
// the incremental indexes. The tracker observes — but does not own — the
// store: callers mutate it through store.SetValue and then call Update with
// the affected fact.
func NewTracker(base *store.Store, cdds []*logic.CDD) *Tracker {
	return NewTrackerUnder(0, base, cdds)
}

// NewTrackerUnder is NewTracker with the initial conflict scan's trace span
// parented under the given span id (0 for a root).
func NewTrackerUnder(parent uint64, base *store.Store, cdds []*logic.CDD) *Tracker {
	t := &Tracker{
		base:      base,
		cdds:      cdds,
		conflicts: make(map[string]*Conflict),
		byFact:    make(map[store.FactID]map[string]bool),
		byPred:    make(map[string][]int),
	}
	t.pinPlans = make([][]*homo.Plan, len(cdds))
	for i, c := range cdds {
		seen := make(map[string]bool)
		for _, a := range c.Body {
			if !seen[a.Pred] {
				seen[a.Pred] = true
				t.byPred[a.Pred] = append(t.byPred[a.Pred], i)
			}
		}
		// Pinned plans are pure functions of (cdd, atom index, prebound
		// set), so they go through the process-wide cache and are shared
		// across trackers.
		t.pinPlans[i] = make([]*homo.Plan, len(c.Body))
		for ai := range c.Body {
			rest := make([]logic.Atom, 0, len(c.Body)-1)
			for j, a := range c.Body {
				if j != ai {
					rest = append(rest, a)
				}
			}
			var pre []logic.Term
			for _, arg := range c.Body[ai].Args {
				if arg.IsVar() && !containsTerm(pre, arg) {
					pre = append(pre, arg)
				}
			}
			t.pinPlans[i][ai] = homo.CachedPlanWith(
				homo.CacheKey{Owner: c, Tag: homo.TagPinned + ai}, rest,
				homo.CompileOpts{Stats: base, Prebound: pre})
		}
	}
	for _, c := range AllNaiveUnder(parent, base, cdds) {
		t.add(c)
	}
	return t
}

func containsTerm(ts []logic.Term, t logic.Term) bool {
	for _, x := range ts {
		if x == t {
			return true
		}
	}
	return false
}

func (t *Tracker) add(c *Conflict) {
	k := c.Key()
	if _, dup := t.conflicts[k]; dup {
		return
	}
	mEdgeAdd.Inc()
	t.conflicts[k] = c
	i := sort.SearchStrings(t.orderedKeys, k)
	t.orderedKeys = append(t.orderedKeys, "")
	copy(t.orderedKeys[i+1:], t.orderedKeys[i:])
	t.orderedKeys[i] = k
	t.ordered = append(t.ordered, nil)
	copy(t.ordered[i+1:], t.ordered[i:])
	t.ordered[i] = c
	for _, f := range c.BaseFacts {
		m := t.byFact[f]
		if m == nil {
			m = make(map[string]bool)
			t.byFact[f] = m
		}
		m[k] = true
	}
}

func (t *Tracker) remove(key string) {
	c, ok := t.conflicts[key]
	if !ok {
		return
	}
	mEdgeDel.Inc()
	delete(t.conflicts, key)
	if i := sort.SearchStrings(t.orderedKeys, key); i < len(t.orderedKeys) && t.orderedKeys[i] == key {
		t.orderedKeys = append(t.orderedKeys[:i], t.orderedKeys[i+1:]...)
		t.ordered = append(t.ordered[:i], t.ordered[i+1:]...)
	}
	for _, f := range c.BaseFacts {
		if m := t.byFact[f]; m != nil {
			delete(m, key)
			if len(m) == 0 {
				delete(t.byFact, f)
			}
		}
	}
}

// Update re-synchronizes the conflict set after the fact with the given id
// has been modified in the underlying store. Per §5: conflicts related to
// the fact are dropped, then every CDD related to the fact's (new) atom is
// re-evaluated with one body atom pinned onto the fact.
func (t *Tracker) Update(id store.FactID) {
	t.UpdateUnder(0, id)
}

// UpdateUnder is Update with the trace span parented under the given span
// id — the inquiry engine attributes each incremental re-sync to the
// question whose answer caused it.
func (t *Tracker) UpdateUnder(parent uint64, id store.FactID) {
	mUpdates.Inc()
	tm := obs.StartTimer()
	defer mUpdateTime.Since(tm)
	sp := obs.Start(obs.KindTrackerUpdate, parent, int(id))
	removed := len(t.byFact[id])
	for k := range t.byFact[id] {
		t.remove(k)
	}
	atom := t.base.FactRef(id)
	var added int
	for _, ci := range t.byPred[atom.Pred] {
		cdd := t.cdds[ci]
		for ai, ba := range cdd.Body {
			if ba.Pred != atom.Pred || len(ba.Args) != len(atom.Args) {
				continue
			}
			// Pin body atom ai onto the updated fact: bind its variables
			// against the fact, then search the remaining atoms.
			seed, ok := bindAtom(ba, atom)
			if !ok {
				continue
			}
			added += t.addPinned(id, ci, ai, seed)
		}
	}
	sp.End(removed, added)
}

// addPinned runs the pinned-seed homomorphism search of CDD ci with body
// atom ai mapped onto fact id, adds every conflict it witnesses and
// returns how many it found.
func (t *Tracker) addPinned(id store.FactID, ci, ai int, seed logic.Subst) int {
	cdd := t.cdds[ci]
	if obs.AttrEnabled() {
		attrPinned.AddFor(AttrID(cdd), 1)
	}
	var found int
	t.pinPlans[ci][ai].ForEachSeeded(t.base, seed, func(m homo.Match) bool {
		facts := make([]store.FactID, 0, len(cdd.Body))
		ri := 0
		for j := range cdd.Body {
			if j == ai {
				facts = append(facts, id)
			} else {
				facts = append(facts, m.Facts[ri])
				ri++
			}
		}
		full := m.Subst.Clone()
		for v, val := range seed {
			full[v] = val
		}
		t.add(&Conflict{
			CDD:       cdd,
			CDDIdx:    ci,
			Hom:       full,
			Facts:     facts,
			BaseFacts: dedupIDs(facts),
			Direct:    true,
		})
		found++
		return true
	})
	return found
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

// Len returns the current number of conflicts.
func (t *Tracker) Len() int { return len(t.conflicts) }

// Conflicts returns the current conflicts in a deterministic order (sorted
// by key). The order is maintained incrementally, so each call is a copy,
// not a re-sort: strategies call this after every answer, and on large
// hypergraphs the repeated O(n log n) sort used to dominate update time.
func (t *Tracker) Conflicts() []*Conflict {
	return append([]*Conflict(nil), t.ordered...)
}

// ConflictsOfFact returns the conflicts involving the given base fact.
func (t *Tracker) ConflictsOfFact(id store.FactID) []*Conflict {
	keys := make([]string, 0, len(t.byFact[id]))
	for k := range t.byFact[id] {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*Conflict, len(keys))
	for i, k := range keys {
		out[i] = t.conflicts[k]
	}
	return out
}

// PositionRanks returns, for every position of every fact involved in a
// conflict, the number of conflicts containing it — the vertex degrees of
// the conflict hypergraph used by opti-mcd.
func (t *Tracker) PositionRanks() map[store.Position]int {
	return PositionRanks(t.Conflicts(), t.base)
}

// positionRanksChunk is the fan-out granularity of PositionRanks: small
// conflict sets rank inline (a fan-out would cost more than the loop),
// larger ones split into chunks of this many conflicts.
const positionRanksChunk = 64

// PositionRanks computes per-position conflict membership counts for an
// arbitrary conflict set. Opti-mcd is an improvement over opti-join (§5),
// so for direct conflicts only the join positions are ranked — changing a
// non-join position can never resolve the conflict, and ranking it would
// steer the strategy toward wasted questions. Chase-level conflicts fall
// back to all base-support positions, as in GenerateQuestion-Chase.
//
// Ranking only reads the conflicts and the store, and per-position counts
// add commutatively, so big sets fan out chunk-wise over the par worker
// pool and merge additively — the result map is identical at any worker
// count.
func PositionRanks(conflicts []*Conflict, s *store.Store) map[store.Position]int {
	if len(conflicts) <= positionRanksChunk {
		return positionRanksSeq(conflicts, s)
	}
	chunks := (len(conflicts) + positionRanksChunk - 1) / positionRanksChunk
	parts := par.MapNamed("conflict.ranks", chunks, func(g int) map[store.Position]int {
		lo := g * positionRanksChunk
		hi := lo + positionRanksChunk
		if hi > len(conflicts) {
			hi = len(conflicts)
		}
		return positionRanksSeq(conflicts[lo:hi], s)
	})
	ranks := make(map[store.Position]int)
	for _, part := range parts {
		for p, n := range part {
			ranks[p] += n
		}
	}
	return ranks
}

func positionRanksSeq(conflicts []*Conflict, s *store.Store) map[store.Position]int {
	ranks := make(map[store.Position]int)
	for _, c := range conflicts {
		ps := c.JoinPositions(s)
		if len(ps) == 0 {
			ps = c.Positions(s)
		}
		for _, p := range ps {
			ranks[p]++
		}
	}
	return ranks
}
