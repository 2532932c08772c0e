// Package store provides the indexed set-of-facts substrate of kbrepair.
//
// A Store holds ground atoms (facts), each with a stable FactID. Update-based
// repairing (the paper's §3) rewrites argument values in place of existing
// facts and never changes fact identity: |F′| = |F| and pos(F′) = pos(F).
// Positions — the paper's (A, i) pairs — are therefore (FactID, argument
// index) pairs here.
//
// The store maintains three auxiliary structures kept in sync on every
// mutation:
//
//   - a per-predicate fact list, and a per-(predicate, argument, term) index
//     used by the homomorphism search;
//   - active domains adom(p, i) — the multiset of values occurring at
//     argument i of predicate p (Def. 3.1 draws candidate fix values from
//     these);
//   - a ground-atom key index used to answer Contains in O(1).
//
// # Concurrency
//
// A Store is safe for concurrent readers, and only readers: any number of
// goroutines may call the read-side accessors (Candidates,
// CandidatesByPred, ActiveDomain, FactRef, Value, Contains, NullForCoord, …)
// simultaneously as long as no goroutine mutates the store (Add, AddBatch,
// SetValue, FreshNull, ReserveNulls) in the same window. Writes require
// exclusive access; the caller provides that exclusion — the store has no
// internal locking, because the repair pipeline's phases are already strictly
// "parallel read, then sequential write" (parallel conflict detection, fix
// generation and position ranking read; fix application and the chase
// write from one goroutine between fan-outs). Metric
// increments inside read paths are atomic and do not break the contract.
package store

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"kbrepair/internal/logic"
	"kbrepair/internal/obs"
)

// Fact-churn and index-traffic instrumentation. All three sit on hot paths
// (SetValue runs once per hypothetical fix; Candidates once per join probe),
// so they are plain striped-counter increments — no gating, no timing.
var (
	mFactsAdded   = obs.NewCounter("store.facts_added")
	mValueUpdates = obs.NewCounter("store.value_updates")
	mLookups      = obs.NewCounter("store.index_lookups")
)

// FactID identifies a fact within a Store. IDs are assigned sequentially
// starting from 0 and are never re-used; they survive argument updates.
type FactID int

// Position identifies one argument slot of one fact — the paper's (A, i)
// with i kept zero-based internally (the paper counts from 1).
type Position struct {
	Fact FactID
	Arg  int
}

// String renders the position as "#fact@arg".
func (p Position) String() string { return fmt.Sprintf("#%d@%d", int(p.Fact), p.Arg) }

type indexKey struct {
	pred string
	arg  int
	term logic.Term
}

type adomKey struct {
	pred string
	arg  int
}

// Store is a mutable, indexed set of facts. The zero value is not usable;
// call New.
type Store struct {
	facts  []logic.Atom // indexed by FactID; len(facts) == number of facts
	byPred map[string][]FactID
	index  map[indexKey][]FactID
	adom   map[adomKey]map[logic.Term]int // value -> occurrence count
	vals   map[logic.Term]int             // global value -> occurrence count
	byKey  map[string][]FactID            // ground-atom key -> facts with that atom
	// nullSeq allocates fresh labeled nulls. It is monotone and shared
	// across clones' lineage by value copying at clone time: a clone starts
	// where the parent was, so nulls created after the clone in either copy
	// may collide between the two stores — but never within one store,
	// which is the invariant the algorithms need.
	nullSeq int
}

// New returns an empty store.
func New() *Store {
	return &Store{
		byPred: make(map[string][]FactID),
		index:  make(map[indexKey][]FactID),
		adom:   make(map[adomKey]map[logic.Term]int),
		vals:   make(map[logic.Term]int),
		byKey:  make(map[string][]FactID),
	}
}

// FromAtoms builds a store containing the given facts, in order. It returns
// an error if any atom is not ground.
func FromAtoms(atoms []logic.Atom) (*Store, error) {
	s := New()
	for _, a := range atoms {
		if _, err := s.Add(a); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// MustFromAtoms is like FromAtoms but panics on error. Intended for tests
// and hand-written examples.
func MustFromAtoms(atoms []logic.Atom) *Store {
	s, err := FromAtoms(atoms)
	if err != nil {
		panic(err)
	}
	return s
}

// Len returns the number of facts in the store.
func (s *Store) Len() int { return len(s.facts) }

// Add inserts a ground atom and returns its new FactID. Duplicate atoms are
// allowed: the paper treats facts as atom occurrences with identity, and
// apply() can legitimately make two occurrences syntactically equal.
func (s *Store) Add(a logic.Atom) (FactID, error) {
	if !a.IsGround() {
		return 0, fmt.Errorf("store: cannot add non-ground atom %s", a)
	}
	mFactsAdded.Inc()
	id := FactID(len(s.facts))
	s.facts = append(s.facts, a.Clone())
	s.byPred[a.Pred] = append(s.byPred[a.Pred], id)
	for i, t := range a.Args {
		s.index[indexKey{a.Pred, i, t}] = append(s.index[indexKey{a.Pred, i, t}], id)
		s.adomAdd(a.Pred, i, t)
	}
	k := a.Key()
	s.byKey[k] = append(s.byKey[k], id)
	return id, nil
}

// AddBatch inserts a batch of ground atoms and returns their new FactIDs in
// order. The batch is validated up front and applied atomically: if any atom
// is non-ground, no atom is inserted. The fact array is grown once for the
// whole batch — this is the chase commit phase's append path (one batch per
// firing, the instantiated safe(H)).
func (s *Store) AddBatch(atoms []logic.Atom) ([]FactID, error) {
	for _, a := range atoms {
		if !a.IsGround() {
			return nil, fmt.Errorf("store: cannot add non-ground atom %s", a)
		}
	}
	if len(atoms) == 0 {
		return nil, nil
	}
	mFactsAdded.Add(int64(len(atoms)))
	ids := make([]FactID, len(atoms))
	if need := len(s.facts) + len(atoms); cap(s.facts) < need {
		grown := make([]logic.Atom, len(s.facts), need+need/2)
		copy(grown, s.facts)
		s.facts = grown
	}
	for i, a := range atoms {
		id := FactID(len(s.facts))
		s.facts = append(s.facts, a.Clone())
		s.byPred[a.Pred] = append(s.byPred[a.Pred], id)
		for j, t := range a.Args {
			s.index[indexKey{a.Pred, j, t}] = append(s.index[indexKey{a.Pred, j, t}], id)
			s.adomAdd(a.Pred, j, t)
		}
		s.byKey[a.Key()] = append(s.byKey[a.Key()], id)
		ids[i] = id
	}
	return ids, nil
}

// MustAdd is like Add but panics on error.
func (s *Store) MustAdd(a logic.Atom) FactID {
	id, err := s.Add(a)
	if err != nil {
		panic(err)
	}
	return id
}

// Fact returns the atom with the given id. The returned atom shares no
// storage with the store (callers may mutate it freely).
func (s *Store) Fact(id FactID) logic.Atom {
	return s.facts[id].Clone()
}

// FactRef returns the stored atom without copying. Callers must not mutate
// the result; it is invalidated by SetValue on the same fact.
func (s *Store) FactRef(id FactID) logic.Atom {
	return s.facts[id]
}

// Valid reports whether id denotes a fact of this store.
func (s *Store) Valid(id FactID) bool {
	return id >= 0 && int(id) < len(s.facts)
}

// Value returns the term at the given position (the paper's value_A^i(F)).
func (s *Store) Value(p Position) logic.Term {
	return s.facts[p.Fact].Args[p.Arg]
}

// Arity returns the arity of the fact with the given id.
func (s *Store) Arity(id FactID) int { return len(s.facts[id].Args) }

// SetValue updates the term at position p, maintaining all indexes, and
// returns the previous value so callers can undo the mutation.
func (s *Store) SetValue(p Position, t logic.Term) (prev logic.Term, err error) {
	if !t.IsGround() {
		return logic.Term{}, fmt.Errorf("store: cannot set variable %s at %s", t, p)
	}
	a := &s.facts[p.Fact]
	if p.Arg < 0 || p.Arg >= len(a.Args) {
		return logic.Term{}, fmt.Errorf("store: position %s out of range for %s", p, *a)
	}
	prev = a.Args[p.Arg]
	if prev == t {
		return prev, nil
	}
	mValueUpdates.Inc()
	oldKey := a.Key()
	s.indexRemove(indexKey{a.Pred, p.Arg, prev}, p.Fact)
	s.adomRemove(a.Pred, p.Arg, prev)
	a.Args[p.Arg] = t
	s.index[indexKey{a.Pred, p.Arg, t}] = append(s.index[indexKey{a.Pred, p.Arg, t}], p.Fact)
	s.adomAdd(a.Pred, p.Arg, t)
	s.keyIndexRemove(oldKey, p.Fact)
	nk := a.Key()
	s.byKey[nk] = append(s.byKey[nk], p.Fact)
	return prev, nil
}

// MustSetValue is like SetValue but panics on error.
func (s *Store) MustSetValue(p Position, t logic.Term) logic.Term {
	prev, err := s.SetValue(p, t)
	if err != nil {
		panic(err)
	}
	return prev
}

func (s *Store) indexRemove(k indexKey, id FactID) {
	lst := s.index[k]
	for i, x := range lst {
		if x == id {
			lst[i] = lst[len(lst)-1]
			lst = lst[:len(lst)-1]
			break
		}
	}
	if len(lst) == 0 {
		delete(s.index, k)
	} else {
		s.index[k] = lst
	}
}

func (s *Store) keyIndexRemove(key string, id FactID) {
	lst := s.byKey[key]
	for i, x := range lst {
		if x == id {
			lst[i] = lst[len(lst)-1]
			lst = lst[:len(lst)-1]
			break
		}
	}
	if len(lst) == 0 {
		delete(s.byKey, key)
	} else {
		s.byKey[key] = lst
	}
}

func (s *Store) adomAdd(pred string, arg int, t logic.Term) {
	// Auto-reserve numeric null labels so FreshNull can never collide with
	// a null inserted from outside (parsed files, hand-built stores).
	if t.Kind == logic.Null && len(t.Name) > 1 && t.Name[0] == 'n' {
		if n, ok := ParseNumericNullLabel(t.Name); ok {
			s.ReserveNulls(n)
		}
	}
	k := adomKey{pred, arg}
	m := s.adom[k]
	if m == nil {
		m = make(map[logic.Term]int)
		s.adom[k] = m
	}
	m[t]++
	s.vals[t]++
}

func (s *Store) adomRemove(pred string, arg int, t logic.Term) {
	if s.vals[t] <= 1 {
		delete(s.vals, t)
	} else {
		s.vals[t]--
	}
	k := adomKey{pred, arg}
	m := s.adom[k]
	if m == nil {
		return
	}
	if m[t] <= 1 {
		delete(m, t)
		if len(m) == 0 {
			delete(s.adom, k)
		}
	} else {
		m[t]--
	}
}

// Contains reports whether the store holds at least one occurrence of the
// given ground atom.
func (s *Store) Contains(a logic.Atom) bool {
	return len(s.byKey[a.Key()]) > 0
}

// FindExact returns the ids of all occurrences of the given ground atom.
func (s *Store) FindExact(a logic.Atom) []FactID {
	return append([]FactID(nil), s.byKey[a.Key()]...)
}

// ByPredicate returns the ids of all facts with the given predicate, in
// insertion order of the underlying structure (stable for a given history).
func (s *Store) ByPredicate(pred string) []FactID {
	return append([]FactID(nil), s.byPred[pred]...)
}

// Candidates returns fact ids with the given predicate whose argument arg
// equals t. It returns the internal slice; callers must not mutate it.
func (s *Store) Candidates(pred string, arg int, t logic.Term) []FactID {
	mLookups.Inc()
	return s.index[indexKey{pred, arg, t}]
}

// CandidatesByPred returns the internal per-predicate id slice; callers must
// not mutate it.
func (s *Store) CandidatesByPred(pred string) []FactID {
	mLookups.Inc()
	return s.byPred[pred]
}

// ActiveDomain returns the active domain adom(p, i): the distinct terms
// occurring at argument i of predicate p, sorted deterministically.
func (s *Store) ActiveDomain(pred string, arg int) []logic.Term {
	m := s.adom[adomKey{pred, arg}]
	out := make([]logic.Term, 0, len(m))
	for t := range m {
		out = append(out, t)
	}
	logic.SortTerms(out)
	return out
}

// ActiveDomainSize returns the number of distinct values at (pred, arg).
func (s *Store) ActiveDomainSize(pred string, arg int) int {
	return len(s.adom[adomKey{pred, arg}])
}

// InActiveDomain reports whether t occurs at argument arg of predicate pred.
func (s *Store) InActiveDomain(pred string, arg int, t logic.Term) bool {
	m := s.adom[adomKey{pred, arg}]
	return m[t] > 0
}

// OccursAnywhere reports whether t occurs at any position of any fact.
func (s *Store) OccursAnywhere(t logic.Term) bool {
	return s.vals[t] > 0
}

// OccurrenceCount returns the number of positions holding t.
func (s *Store) OccurrenceCount(t logic.Term) int {
	return s.vals[t]
}

// Predicates returns the predicate names present in the store, sorted.
func (s *Store) Predicates() []string {
	out := make([]string, 0, len(s.byPred))
	for p, ids := range s.byPred {
		if len(ids) > 0 {
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out
}

// IDs returns all fact ids in ascending order.
func (s *Store) IDs() []FactID {
	out := make([]FactID, len(s.facts))
	for i := range out {
		out[i] = FactID(i)
	}
	return out
}

// Atoms returns a copy of all facts in id order.
func (s *Store) Atoms() []logic.Atom {
	out := make([]logic.Atom, len(s.facts))
	for i, a := range s.facts {
		out[i] = a.Clone()
	}
	return out
}

// Positions returns pos(F): every (fact, argument) position of the store,
// in deterministic order.
func (s *Store) Positions() []Position {
	var out []Position
	for i, a := range s.facts {
		for j := range a.Args {
			out = append(out, Position{Fact: FactID(i), Arg: j})
		}
	}
	return out
}

// NumPositions returns |pos(F)| without materializing the slice.
func (s *Store) NumPositions() int {
	n := 0
	for _, a := range s.facts {
		n += len(a.Args)
	}
	return n
}

// ParseNumericNullLabel parses a FreshNull-shaped label "n<digits>" and
// returns its counter value. It reports false for any other shape — and,
// critically, for digit strings that overflow int: FreshNull renders an int,
// so a label whose numeric value does not fit in one can never collide with
// a FreshNull allocation, and reserving a silently wrapped value would at
// best no-op and at worst (32-bit int) under-reserve, letting FreshNull
// later mint a label equal to an externally inserted null.
func ParseNumericNullLabel(name string) (int, bool) {
	if len(name) < 2 || name[0] != 'n' {
		return 0, false
	}
	n := 0
	for i := 1; i < len(name); i++ {
		c := name[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		d := int(c - '0')
		if n > (math.MaxInt-d)/10 {
			return 0, false
		}
		n = n*10 + d
	}
	return n, true
}

// FreshNull allocates a labeled null that has never been used by this store
// (nor by any ancestor it was cloned from).
func (s *Store) FreshNull() logic.Term {
	s.nullSeq++
	return logic.N("n" + strconv.Itoa(s.nullSeq))
}

// CoordNullLabel renders the deterministic label of the null invented at
// chase firing coordinate (round, rule index, trigger index, existential-var
// index): "n<round>r<rule>t<trig>x<ex>". The label is a function of the
// coordinate alone — not of any allocation counter — so a firing's nulls do
// not depend on which firings preceded it or on how many nulls the store
// handed out before the chase began. All characters are identifier-safe for the parser's "_:label" null
// syntax, and the shape is never purely numeric, so the FreshNull
// auto-reserve in adomAdd ignores it.
func CoordNullLabel(round, rule, trig, ex int) string {
	b := make([]byte, 0, 16)
	b = append(b, 'n')
	b = strconv.AppendInt(b, int64(round), 10)
	b = append(b, 'r')
	b = strconv.AppendInt(b, int64(rule), 10)
	b = append(b, 't')
	b = strconv.AppendInt(b, int64(trig), 10)
	b = append(b, 'x')
	b = strconv.AppendInt(b, int64(ex), 10)
	return string(b)
}

// NullForCoord returns the invented null for a chase firing coordinate,
// deterministically escaped against the store's current contents: if the
// coordinate label already occurs anywhere in the store — an externally
// inserted coordinate-shaped null, or the inventions of a previous chase
// when a chase result is chased again — successive "c1", "c2", … suffixes
// are tried until a free label is found. The method only reads the store
// (no counter is consumed), so it is safe under the concurrent-read
// contract and the result depends only on store contents, never on
// allocation order.
func (s *Store) NullForCoord(round, rule, trig, ex int) logic.Term {
	t := logic.N(CoordNullLabel(round, rule, trig, ex))
	if s.vals[t] == 0 {
		return t
	}
	for k := 1; ; k++ {
		esc := logic.N(t.Name + "c" + strconv.Itoa(k))
		if s.vals[esc] == 0 {
			return esc
		}
	}
}

// ReserveNulls bumps the fresh-null counter so that subsequently allocated
// nulls do not collide with externally created labels n1..n(k).
func (s *Store) ReserveNulls(k int) {
	if k > s.nullSeq {
		s.nullSeq = k
	}
}

// NullSeq returns the current fresh-null counter; a derived store that
// reserves this many labels will never allocate a null colliding with one
// this store has handed out.
func (s *Store) NullSeq() int { return s.nullSeq }

// Clone returns a deep copy of the store. The copy has the same FactIDs and
// the same fresh-null counter position.
func (s *Store) Clone() *Store {
	c := &Store{
		facts:   make([]logic.Atom, len(s.facts)),
		byPred:  make(map[string][]FactID, len(s.byPred)),
		index:   make(map[indexKey][]FactID, len(s.index)),
		adom:    make(map[adomKey]map[logic.Term]int, len(s.adom)),
		vals:    make(map[logic.Term]int, len(s.vals)),
		byKey:   make(map[string][]FactID, len(s.byKey)),
		nullSeq: s.nullSeq,
	}
	for t, n := range s.vals {
		c.vals[t] = n
	}
	for i, a := range s.facts {
		c.facts[i] = a.Clone()
	}
	for p, ids := range s.byPred {
		c.byPred[p] = append([]FactID(nil), ids...)
	}
	for k, ids := range s.index {
		c.index[k] = append([]FactID(nil), ids...)
	}
	for k, m := range s.adom {
		mm := make(map[logic.Term]int, len(m))
		for t, n := range m {
			mm[t] = n
		}
		c.adom[k] = mm
	}
	for k, ids := range s.byKey {
		c.byKey[k] = append([]FactID(nil), ids...)
	}
	return c
}

// Equal reports whether two stores contain exactly the same facts at the
// same ids.
func (s *Store) Equal(o *Store) bool {
	if len(s.facts) != len(o.facts) {
		return false
	}
	for i := range s.facts {
		if !s.facts[i].Equal(o.facts[i]) {
			return false
		}
	}
	return true
}

// EqualAsSet reports whether the two stores hold the same multiset of atoms,
// ignoring fact ids.
func (s *Store) EqualAsSet(o *Store) bool {
	if len(s.facts) != len(o.facts) {
		return false
	}
	counts := make(map[string]int, len(s.facts))
	for _, a := range s.facts {
		counts[a.Key()]++
	}
	for _, a := range o.facts {
		counts[a.Key()]--
		if counts[a.Key()] < 0 {
			return false
		}
	}
	return true
}

// EqualUpToNullRenaming reports whether two stores hold the same facts at
// the same ids up to a bijective renaming of labeled nulls. Two repairs that
// anonymize the same positions with differently-labeled fresh nulls are the
// same repair in the paper's sense.
func (s *Store) EqualUpToNullRenaming(o *Store) bool {
	if len(s.facts) != len(o.facts) {
		return false
	}
	fwd := make(map[logic.Term]logic.Term)
	bwd := make(map[logic.Term]logic.Term)
	for i := range s.facts {
		a, b := s.facts[i], o.facts[i]
		if a.Pred != b.Pred || len(a.Args) != len(b.Args) {
			return false
		}
		for j := range a.Args {
			ta, tb := a.Args[j], b.Args[j]
			if ta.IsNull() != tb.IsNull() {
				return false
			}
			if !ta.IsNull() {
				if ta != tb {
					return false
				}
				continue
			}
			if m, ok := fwd[ta]; ok {
				if m != tb {
					return false
				}
			} else {
				fwd[ta] = tb
			}
			if m, ok := bwd[tb]; ok {
				if m != ta {
					return false
				}
			} else {
				bwd[tb] = ta
			}
		}
	}
	return true
}

// String renders the facts one per line in id order, in parser syntax.
func (s *Store) String() string {
	var sb strings.Builder
	for _, a := range s.facts {
		sb.WriteString(a.String())
		sb.WriteString(".\n")
	}
	return sb.String()
}

// CheckInvariants verifies internal consistency of all indexes. It is meant
// for tests and returns a descriptive error on the first violation found.
func (s *Store) CheckInvariants() error {
	// Every fact must be present in byPred, index, byKey.
	for i, a := range s.facts {
		id := FactID(i)
		if !containsID(s.byPred[a.Pred], id) {
			return fmt.Errorf("fact %d missing from byPred[%s]", id, a.Pred)
		}
		for j, t := range a.Args {
			if !containsID(s.index[indexKey{a.Pred, j, t}], id) {
				return fmt.Errorf("fact %d missing from index[%s,%d,%s]", id, a.Pred, j, t)
			}
			if s.adom[adomKey{a.Pred, j}][t] <= 0 {
				return fmt.Errorf("adom[%s,%d] missing %s", a.Pred, j, t)
			}
		}
		if !containsID(s.byKey[a.Key()], id) {
			return fmt.Errorf("fact %d missing from byKey[%s]", id, a.Key())
		}
	}
	// No stale index entries.
	for k, ids := range s.index {
		for _, id := range ids {
			if !s.Valid(id) || s.facts[id].Pred != k.pred || s.facts[id].Args[k.arg] != k.term {
				return fmt.Errorf("stale index entry %v -> %d", k, id)
			}
		}
	}
	// adom counts must equal occurrence counts.
	counts := make(map[adomKey]map[logic.Term]int)
	for _, a := range s.facts {
		for j, t := range a.Args {
			k := adomKey{a.Pred, j}
			if counts[k] == nil {
				counts[k] = make(map[logic.Term]int)
			}
			counts[k][t]++
		}
	}
	for k, m := range s.adom {
		for t, n := range m {
			if counts[k][t] != n {
				return fmt.Errorf("adom[%v][%s] = %d, want %d", k, t, n, counts[k][t])
			}
		}
	}
	for k, m := range counts {
		for t, n := range m {
			if s.adom[k][t] != n {
				return fmt.Errorf("adom[%v][%s] = %d, want %d", k, t, s.adom[k][t], n)
			}
		}
	}
	// Global value counts must equal total occurrence counts.
	valCounts := make(map[logic.Term]int)
	for _, a := range s.facts {
		for _, t := range a.Args {
			valCounts[t]++
		}
	}
	for t, n := range s.vals {
		if valCounts[t] != n {
			return fmt.Errorf("vals[%s] = %d, want %d", t, n, valCounts[t])
		}
	}
	for t, n := range valCounts {
		if s.vals[t] != n {
			return fmt.Errorf("vals[%s] = %d, want %d", t, s.vals[t], n)
		}
	}
	return nil
}

func containsID(ids []FactID, id FactID) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}
