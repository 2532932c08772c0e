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
	// pin is the pinned-seed search Update re-evaluates CDDs with.
	pin *Pinned
}

// Pinned is the pinned-seed CDD search of §5's UpdateConflicts
// (homo.Pinned over the CDD bodies). The tracker re-syncs its conflict set
// with it; the Π-checker decides CDD-only fixes with it.
type Pinned struct {
	cdds  []*logic.CDD
	seeds *homo.Pinned
}

// NewPinned prepares the pinned-seed search for the CDDs, compiling its
// plans against stats if they are not in the CDDs' memos yet.
func NewPinned(cdds []*logic.CDD, stats *store.Store) *Pinned {
	owners := make([]homo.Owner, len(cdds))
	bodies := make([][]logic.Atom, len(cdds))
	for i, c := range cdds {
		owners[i], bodies[i] = c, c.Body
	}
	return &Pinned{cdds: cdds, seeds: homo.NewPinned(owners, bodies, stats)}
}

// Each runs the pinned-seed search for fact id of s: every body atom ai of
// every CDD ci that can map onto the fact is bound to it, and the rest of
// the body is searched from there. Each calls fn for every homomorphism
// found, with seed holding the pinned atom's bindings and m the match of
// the other body atoms (in body order, valid only during the call), and
// reports whether it found any. With a nil fn it stops at the first.
func (p *Pinned) Each(s *store.Store, id store.FactID, fn func(ci, ai int, seed logic.Subst, m homo.Match)) bool {
	hit := false
	p.seeds.Seeds(s, id, func(ci, ai int, seed logic.Subst, plan *homo.Plan) bool {
		if obs.AttrEnabled() {
			attrPinned.AddFor(AttrID(p.cdds[ci]), 1)
		}
		if fn == nil {
			hit = plan.ExistsSeeded(s, seed)
			return !hit
		}
		plan.ForEachSeeded(s, seed, func(m homo.Match) bool {
			hit = true
			fn(ci, ai, seed, m)
			return true
		})
		return true
	})
	return hit
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
	t := newTracker(base, cdds)
	for _, c := range AllNaiveUnder(parent, base, cdds) {
		t.add(c)
	}
	return t
}

// NewTrackerFrom is NewTracker seeded from all, the chase-level conflicts
// of the same store and CDDs (All's result), instead of a naive scan. The
// naive conflicts are exactly the direct ones among them — scanCDD keeps
// the direct match of a homomorphism whenever one exists — so a session
// that needs both sets pays for one scan.
func NewTrackerFrom(base *store.Store, cdds []*logic.CDD, all []*Conflict) *Tracker {
	t := newTracker(base, cdds)
	for _, c := range all {
		if c.Direct {
			t.add(c)
		}
	}
	return t
}

func newTracker(base *store.Store, cdds []*logic.CDD) *Tracker {
	return &Tracker{
		base:      base,
		cdds:      cdds,
		conflicts: make(map[string]*Conflict),
		byFact:    make(map[store.FactID]map[string]bool),
		pin:       NewPinned(cdds, base),
	}
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
	var added int
	t.pin.Each(t.base, id, func(ci, ai int, seed logic.Subst, m homo.Match) {
		cdd := t.cdds[ci]
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
		added++
	})
	sp.End(removed, added)
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
