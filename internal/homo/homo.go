// Package homo implements homomorphism search from conjunctions of atoms to
// an indexed fact store — the evaluation engine behind CDD-body checks, TGD
// applicability and conjunctive query answering throughout kbrepair.
//
// A homomorphism h from a conjunction B to a set of facts F maps every
// variable of B to a ground term of F such that h(B) ⊆ F; constants and
// labeled nulls in B must match facts exactly.
//
// Conjunctions are compiled once into Plans (see plan.go): variables become
// dense integer slots bound through a flat array with an undo trail, and
// per-atom candidate lists are cached across backtrack nodes, invalidated
// only when one of the atom's slots changes. The kernel a plan runs is
// chosen at compile time (see order.go): acyclic bodies execute a fixed
// atom order picked by a cost-based orderer (with one-step forward
// checking), cyclic bodies — in the GYO ear-removal sense — execute a
// variable-at-a-time generic join (see wcoj.go); CompileOpts.Mode can force
// either kernel. Rule-derived conjunctions share compiled plans through
// CachedPlan, keyed by rule identity plus the compile spec; CompileOpts
// also supports seed-specialized plans whose Prebound variables count as
// bound for ordering. The package-level functions below compile on the fly
// and are kept as the convenience API for ad-hoc bodies.
//
// The engine's contract is the SET of matches: two plans for the same body
// always produce equal match sets, but enumeration order is a plan
// property and differs across kernels and orders.
package homo

import (
	"encoding/binary"

	"kbrepair/internal/logic"
	"kbrepair/internal/obs"
	"kbrepair/internal/store"
)

// Search instrumentation. Node and probe counts accumulate in the search
// state and flush to the striped counters once per search, keeping the
// per-node overhead at plain integer increments. The counters break down by
// body: each flush bills the plan's interned body key (unattributed when
// attribution is off).
var (
	mSearches = obs.NewRuleCounter(obs.FamSearches)
	mNodes    = obs.NewRuleCounter(obs.FamNodes)
	mProbes   = obs.NewRuleCounter(obs.FamProbes)
	mTime     = obs.NewHistogram("homo.match_seconds", obs.LatencyBuckets)
)

// Match is one homomorphism: the variable bindings plus, for each body atom
// (in body order), the id of the fact it was mapped onto.
type Match struct {
	Subst logic.Subst
	Facts []store.FactID
}

// Clone returns a deep copy of the match.
func (m Match) Clone() Match {
	return Match{
		Subst: m.Subst.Clone(),
		Facts: append([]store.FactID(nil), m.Facts...),
	}
}

// Exists reports whether at least one homomorphism from body to s exists
// (boolean conjunctive query evaluation).
func Exists(s *store.Store, body []logic.Atom) bool {
	return Compile(body).Exists(s)
}

// ExistsSeeded reports whether a homomorphism extending seed exists.
func ExistsSeeded(s *store.Store, body []logic.Atom, seed logic.Subst) bool {
	return Compile(body).ExistsSeeded(s, seed)
}

// FindFirst returns one homomorphism from body to s, if any.
func FindFirst(s *store.Store, body []logic.Atom) (Match, bool) {
	var out Match
	found := false
	ForEach(s, body, func(m Match) bool {
		out = m.Clone()
		found = true
		return false
	})
	return out, found
}

// FindAll returns every homomorphism from body to s. Distinct assignments of
// body atoms to (possibly duplicate) facts are returned as distinct matches
// even when the variable bindings coincide; callers that need homomorphism-
// level identity should deduplicate on Subst.Key.
func FindAll(s *store.Store, body []logic.Atom) []Match {
	var out []Match
	ForEach(s, body, func(m Match) bool {
		out = append(out, m.Clone())
		return true
	})
	return out
}

// ForEach enumerates homomorphisms from body to s, invoking fn for each.
// The Match passed to fn is only valid during the call; clone it to retain
// it. Returning false from fn stops the enumeration.
func ForEach(s *store.Store, body []logic.Atom, fn func(Match) bool) {
	ForEachSeeded(s, body, nil, fn)
}

// ForEachSeeded is ForEach with an initial partial substitution: only
// homomorphisms extending seed are enumerated. seed may be nil.
func ForEachSeeded(s *store.Store, body []logic.Atom, seed logic.Subst, fn func(Match) bool) {
	Compile(body).ForEachSeeded(s, seed, fn)
}

// Answers evaluates a conjunctive query with distinguished variables answVars
// over s and returns the distinct answer tuples, in enumeration order. This
// is the paper's Q(F, ΣT) restricted to a plain store; query answering under
// TGDs composes this with the chase (see internal/chase.Answers).
func Answers(s *store.Store, body []logic.Atom, answVars []logic.Term) [][]logic.Term {
	var out [][]logic.Term
	seen := make(map[string]bool)
	// Dedup keys are built into one reused buffer with a self-delimiting
	// encoding (kind byte + uvarint length + name bytes per term), so a
	// tuple's key is unambiguous regardless of the bytes inside names and
	// key construction is O(tuple size) with no per-term allocations.
	var key []byte
	ForEach(s, body, func(m Match) bool {
		tuple := make([]logic.Term, len(answVars))
		key = key[:0]
		for i, v := range answVars {
			tuple[i] = m.Subst.Lookup(v)
			key = append(key, byte(tuple[i].Kind))
			key = binary.AppendUvarint(key, uint64(len(tuple[i].Name)))
			key = append(key, tuple[i].Name...)
		}
		if !seen[string(key)] {
			seen[string(key)] = true
			out = append(out, tuple)
		}
		return true
	})
	return out
}
