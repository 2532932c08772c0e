// Package chase implements the restricted (standard) chase for
// weakly-acyclic TGDs, with per-fact provenance, plus the two consistency
// checks of the paper: the naive one (full chase, then evaluate every CDD
// body) and CheckConsistency-Opt (§5), which compiles CDDs into ⊥-headed
// rules and aborts the chase the moment ⊥ is derived.
package chase

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"kbrepair/internal/homo"
	"kbrepair/internal/logic"
	"kbrepair/internal/obs"
	"kbrepair/internal/obs/flight"
	"kbrepair/internal/store"
)

// Pipeline instrumentation (see README "Observability" for the inventory).
// Counters are always-on atomic adds; the run-latency histogram only costs
// a clock read when obs timing is enabled. Trigger checks, firings and
// derived facts break down by TGD: IDs are content-addressed by the rule's
// canonical string and cached by rule pointer.
var (
	mRuns     = obs.NewCounter("chase.runs")
	mRounds   = obs.NewCounter("chase.rounds")
	mTriggers = obs.NewRuleCounter("chase.trigger_checks")
	mFirings  = obs.NewRuleCounter("chase.rule_firings")
	mDerived  = obs.NewRuleCounter("chase.facts_derived")
	mNulls    = obs.NewCounter("chase.nulls_invented")
	// mDeferred counts triggers that crossed a round boundary: every trigger
	// collected in round ≥ 2 involves a fact derived the round before, i.e.
	// it existed conceptually the moment that fact was added but — because
	// each round collects against the store as it stood at the round's
	// start — was deferred to the next round's scan.
	mDeferred = obs.NewCounter("chase.triggers_deferred")
	mRunTime  = obs.NewHistogram("chase.run_seconds", obs.LatencyBuckets)
	// gRound is the live-progress gauge read back by /statusz: the round
	// the chase currently in flight is on, reset to 0 when the run ends so
	// an idle process never reports the previous run's round forever.
	// Within one run only the round loop writes it; concurrent *runs* (the
	// Π-check workers each chase a candidate store) overwrite each other
	// last-writer-wins, which is fine for a dashboard.
	gRound = obs.NewGauge(obs.StatusChaseRound)
)

// ruleAttrID resolves (and caches) the attribution ID of a rule, or
// obs.None when attribution is off. Cold path: called once per rule per
// round.
func ruleAttrID(r *logic.TGD) obs.ID {
	if !obs.AttrEnabled() {
		return obs.None
	}
	if id, ok := obs.OwnerID(r); ok {
		return id
	}
	return obs.BindOwner(r, r.String())
}

// ErrBudget is returned when the chase exceeds its safety budget. On a
// weakly-acyclic rule set this indicates a budget set too low; on arbitrary
// rules it is the guard against non-termination.
var ErrBudget = errors.New("chase: derivation budget exceeded")

// Exit-status markers, the note of a chase.round span that ended early. A
// round that completed normally carries none.
const (
	// RoundStatusAborted: the ⊥ optimization derived the abort predicate
	// and stopped the chase inside this round — expected early exit.
	RoundStatusAborted = "aborted"
	// RoundStatusBudget: the round or derivation budget was exceeded.
	RoundStatusBudget = "budget"
	// RoundStatusError: a firing failed; the chase returned an error.
	RoundStatusError = "error"
)

// Derivation records how a derived fact came to be: the rule that fired,
// the base-store facts its body mapped onto (ids in the chase result store),
// and which head atom of the rule produced it.
type Derivation struct {
	Rule    *logic.TGD
	Parents []store.FactID
	HeadIdx int
}

// Result is the outcome of a chase run.
type Result struct {
	// Store contains the base facts (same ids as the input store) followed
	// by all derived facts.
	Store *store.Store
	// BaseLen is the number of base facts; ids < BaseLen are base facts.
	BaseLen int
	// Prov maps each derived fact id to its derivation.
	Prov map[store.FactID]Derivation
	// Rounds is the number of saturation rounds performed.
	Rounds int

	// supportMu guards supportMemo. Provenance is immutable once the run
	// returns, so the memo only ever grows; the lock makes the cache safe
	// for the concurrent per-CDD scans of conflict.All.
	supportMu sync.Mutex
	// supportMemo caches BaseSupport per fact: conflict materialization
	// walks the same shared provenance DAG once per chase-level conflict
	// fact, and without the memo each walk restarts from scratch.
	supportMemo map[store.FactID][]store.FactID
}

// Derived returns the ids of all derived (non-base) facts in ascending order.
func (r *Result) Derived() []store.FactID {
	out := make([]store.FactID, 0, r.Store.Len()-r.BaseLen)
	for id := store.FactID(r.BaseLen); int(id) < r.Store.Len(); id++ {
		out = append(out, id)
	}
	return out
}

// IsBase reports whether id denotes a base fact.
func (r *Result) IsBase(id store.FactID) bool { return int(id) < r.BaseLen }

// BaseSupport returns the set of base facts that (transitively) support the
// given fact: the fact itself if it is base, otherwise the union of the
// supports of its derivation parents. The result is sorted and duplicate
// free. Support sets are memoized per fact (provenance never changes after
// the run), so repeated queries over a shared derivation DAG — one per
// chase-level conflict fact in conflict materialization — each cost one
// map lookup instead of a full DAG walk.
func (r *Result) BaseSupport(id store.FactID) []store.FactID {
	r.supportMu.Lock()
	defer r.supportMu.Unlock()
	s := r.baseSupportLocked(id)
	// Callers own their result; the memo keeps the canonical copy.
	return append([]store.FactID(nil), s...)
}

// baseSupportLocked computes (and caches) the support set of id, memoizing
// every intermediate fact of the DAG walk. supportMu must be held.
func (r *Result) baseSupportLocked(id store.FactID) []store.FactID {
	if s, ok := r.supportMemo[id]; ok {
		return s
	}
	var out []store.FactID
	if r.IsBase(id) {
		out = []store.FactID{id}
	} else {
		seen := make(map[store.FactID]bool)
		for _, p := range r.Prov[id].Parents {
			for _, b := range r.baseSupportLocked(p) {
				if !seen[b] {
					seen[b] = true
					out = append(out, b)
				}
			}
		}
		sortIDs(out)
	}
	if r.supportMemo == nil {
		r.supportMemo = make(map[store.FactID][]store.FactID)
	}
	r.supportMemo[id] = out
	return out
}

// BaseSupportAll returns the union of base supports of several facts.
func (r *Result) BaseSupportAll(ids []store.FactID) []store.FactID {
	r.supportMu.Lock()
	defer r.supportMu.Unlock()
	seen := make(map[store.FactID]bool)
	var out []store.FactID
	for _, id := range ids {
		for _, b := range r.baseSupportLocked(id) {
			if !seen[b] {
				seen[b] = true
				out = append(out, b)
			}
		}
	}
	sortIDs(out)
	return out
}

func sortIDs(ids []store.FactID) {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
}

// Options configure a chase run.
type Options struct {
	// MaxDerived caps the number of derived facts (0 means the default of
	// 1_000_000). The chase returns ErrBudget when exceeded.
	MaxDerived int
	// MaxRounds caps saturation rounds (0 means the default of 10_000).
	MaxRounds int
	// TraceParent is the span id the chase.run trace span is parented
	// under (0 for a root span) — how callers attribute chase time to the
	// question or scan that triggered it.
	TraceParent uint64
	// TraceQuiet suppresses the run's trace spans entirely. The Π-check
	// worker pool sets it: spans emitted from concurrent workers would
	// interleave nondeterministically in the trace, so those chases stay
	// silent and their time is attributed at the batch level instead.
	TraceQuiet bool
}

func (o Options) maxDerived() int {
	if o.MaxDerived <= 0 {
		return 1_000_000
	}
	return o.MaxDerived
}

func (o Options) maxRounds() int {
	if o.MaxRounds <= 0 {
		return 10_000
	}
	return o.MaxRounds
}

// PrecompilePlans warms the process-wide homomorphism plan cache for every
// conjunction the pipeline derives from the rules — TGD bodies, TGD heads
// (seed-specialized on the frontier variables, which every head check binds),
// CDD bodies and the memoized ⊥-rules — against a representative store.
//
// The join order of a plan binds at its first compile, so this must run at a
// deterministic sequential point before any parallel fan-out can compile as
// a side effect: the Π-check worker pool chases clone stores that differ by
// the fix under test, and letting the first compile race there would tie the
// chosen order (and the resulting node counts) to worker scheduling.
func PrecompilePlans(base *store.Store, tgds []*logic.TGD, cdds []*logic.CDD) {
	rules := tgds
	if len(cdds) > 0 {
		rules = append(append([]*logic.TGD(nil), tgds...), CompileBottom(cdds)...)
	}
	for _, r := range rules {
		homo.CachedPlanWith(homo.CacheKey{Owner: r, Tag: homo.TagBody}, r.Body,
			homo.CompileOpts{Stats: base})
		homo.CachedPlanWith(homo.CacheKey{Owner: r, Tag: homo.TagHead}, r.Head,
			homo.CompileOpts{Stats: base, Prebound: r.FrontierVars()})
	}
	for _, c := range cdds {
		homo.CachedPlanWith(homo.CacheKey{Owner: c, Tag: homo.TagBody}, c.Body,
			homo.CompileOpts{Stats: base})
	}
}

// Run computes the restricted chase of the base store under the given TGDs.
// The base store is not modified; the result store is a clone extended with
// derived facts. A trigger (rule, body homomorphism) fires only if the head
// is not already satisfied by an extension of the frontier bindings — the
// standard-chase applicability condition that guarantees termination on
// weakly-acyclic rule sets.
func Run(base *store.Store, tgds []*logic.TGD, opts Options) (*Result, error) {
	return run(base, tgds, opts, "")
}

// run is the shared engine. If abortPred is non-empty, the chase stops as
// soon as a fact with that predicate is derived (used by the ⊥ optimization).
func run(base *store.Store, tgds []*logic.TGD, opts Options, abortPred string) (*Result, error) {
	mRuns.Inc()
	tm := obs.StartTimer()
	defer mRunTime.Since(tm)
	var sp obs.Span
	if !opts.TraceQuiet {
		sp = obs.Start(obs.KindChaseRun, opts.TraceParent, base.Len(), len(tgds))
	}
	res, err := chaseLoop(base, tgds, opts, abortPred, sp)
	sp.End(res.Rounds, len(res.Prov))
	return res, err
}

// chaseLoop is the saturation engine, a sequential restricted-chase
// fixpoint. Each round has two phases:
//
//  1. Trigger collection — one read-only homomorphism search per TGD, rule
//     by rule, against the store as it stood at the start of the round. A
//     trigger that only exists because of a fact derived *within* the
//     current round is picked up next round through the delta (its newest
//     fact is in this round's delta), so nothing is lost by collecting
//     against the round-start store.
//  2. Firing — in (rule, trigger) order. The applicability check runs
//     against the live store, so a firing earlier in the order suppresses
//     a later trigger whose head it satisfied. Invented nulls are named by
//     firing coordinate (round, rule, trigger, existential index —
//     store.NullForCoord) instead of being drawn from a shared counter, and
//     each head is appended with one AddBatch.
//
// The output matches the test-only reference chase (reference_test.go)
// fact-for-fact at the same ids, with the same provenance and round
// structure, modulo the renaming of invented nulls.
//
// sp is the enclosing chase.run span (inert with no ring or -trace file,
// or under TraceQuiet): each round is a chase.round child, so a slow chase
// decomposes round-by-round in the waterfall, and a bundle captured
// mid-round shows the open round.
func chaseLoop(base *store.Store, tgds []*logic.TGD, opts Options, abortPred string, sp obs.Span) (*Result, error) {
	res := &Result{
		Store:   base.Clone(),
		BaseLen: base.Len(),
		Prov:    make(map[store.FactID]Derivation),
	}
	if len(tgds) == 0 {
		return res, nil
	}
	// The chase-round gauge tracks the run in flight; once the run is over
	// the process is idle again and /statusz must not keep reporting the
	// last round forever.
	defer gRound.Set(0)
	s := res.Store

	// Round 0 works on all facts; later rounds only consider triggers that
	// involve at least one fact from the previous round's delta.
	delta := s.IDs()
	budget := opts.maxDerived()

	// Per-rule invariants hoisted out of the round loop: FrontierVars and
	// ExistentialVars compute fresh slices on every call, and the body/head
	// plans are resolved once per run so the per-trigger hot path never
	// rebuilds a cache key. Head plans are seed-specialized on the frontier
	// variables — every applicability check binds exactly those.
	front := make([][]logic.Term, len(tgds))
	exist := make([][]logic.Term, len(tgds))
	bodyPlans := make([]*homo.Plan, len(tgds))
	headPlans := make([]*homo.Plan, len(tgds))
	for i, r := range tgds {
		front[i] = r.FrontierVars()
		exist[i] = r.ExistentialVars()
		bodyPlans[i] = homo.CachedPlanWith(homo.CacheKey{Owner: r, Tag: homo.TagBody}, r.Body,
			homo.CompileOpts{Stats: s})
		headPlans[i] = homo.CachedPlanWith(homo.CacheKey{Owner: r, Tag: homo.TagHead}, r.Head,
			homo.CompileOpts{Stats: s, Prebound: front[i]})
	}

	for len(delta) > 0 {
		res.Rounds++
		mRounds.Inc()
		gRound.Set(int64(res.Rounds))
		rsp := sp.Child(obs.KindChaseRound, res.Rounds, len(delta))
		flight.ObserveChaseRound(res.Rounds, opts.maxRounds())
		if res.Rounds > opts.maxRounds() {
			// Every exit path closes the round, marked with why it ended
			// early.
			rsp.EndNote(RoundStatusBudget)
			return res, fmt.Errorf("%w: more than %d rounds", ErrBudget, opts.maxRounds())
		}
		deltaSet := make(map[store.FactID]bool, len(delta))
		for _, id := range delta {
			deltaSet[id] = true
		}
		all := res.Rounds == 1
		perRule := make([][]homo.Match, len(tgds))
		for i := range tgds {
			perRule[i] = collectTriggers(s, bodyPlans[i], all, deltaSet)
		}
		// Every trigger surviving the delta filter in round ≥ 2 involves a
		// fact from the previous round's delta: it was deferred across the
		// round-start boundary.
		var deferred int
		if !all {
			for _, ms := range perRule {
				deferred += len(ms)
			}
			mDeferred.Add(int64(deferred))
		}

		var newDelta []store.FactID
		var firings int
		for ri, rule := range tgds {
			rid := obs.None
			if len(perRule[ri]) > 0 {
				rid = ruleAttrID(rule)
			}
			for ti, m := range perRule[ri] {
				mTriggers.AddFor(rid, 1)
				frontier := m.Subst.Restrict(front[ri])
				if headPlans[ri].ExistsSeeded(s, frontier) {
					continue
				}
				if budget-len(res.Prov) < len(rule.Head) {
					rsp.EndNote(RoundStatusBudget, len(newDelta), deferred, firings)
					return res, ErrBudget
				}
				inst := frontier
				if len(exist[ri]) > 0 {
					inst = frontier.Clone()
					for x, z := range exist[ri] {
						inst[z] = s.NullForCoord(res.Rounds, ri, ti, x)
					}
				}
				atoms := make([]logic.Atom, len(rule.Head))
				for i, h := range rule.Head {
					atoms[i] = inst.Apply(h)
				}
				mFirings.AddFor(rid, 1)
				mNulls.Add(int64(len(exist[ri])))
				ids, err := s.AddBatch(atoms)
				if err != nil {
					rsp.EndNote(RoundStatusError, len(newDelta), deferred, firings)
					return res, fmt.Errorf("chase: firing %s: %w", rule, err)
				}
				firings++
				mDerived.AddFor(rid, int64(len(ids)))
				for i, id := range ids {
					res.Prov[id] = Derivation{Rule: rule, Parents: m.Facts, HeadIdx: i}
					newDelta = append(newDelta, id)
					if abortPred != "" && atoms[i].Pred == abortPred {
						rsp.EndNote(RoundStatusAborted, len(newDelta), deferred, firings)
						return res, nil
					}
				}
			}
		}
		rsp.End(len(newDelta), deferred, firings)
		delta = newDelta
	}
	return res, nil
}

// collectTriggers gathers body homomorphisms for the rule. In the first
// round all homomorphisms are collected; in later rounds only those mapping
// at least one body atom onto a delta fact. Matches are cloned because the
// store is mutated later, while firing.
func collectTriggers(s *store.Store, plan *homo.Plan, all bool, deltaSet map[store.FactID]bool) []homo.Match {
	var out []homo.Match
	plan.ForEach(s, func(m homo.Match) bool {
		if !all {
			hit := false
			for _, f := range m.Facts {
				if deltaSet[f] {
					hit = true
					break
				}
			}
			if !hit {
				return true
			}
		}
		out = append(out, m.Clone())
		return true
	})
	return out
}

// IsConsistentNaive runs the full chase and then evaluates every CDD body on
// the chased store — the paper's CheckConsistency. It returns whether the KB
// is consistent.
func IsConsistentNaive(base *store.Store, tgds []*logic.TGD, cdds []*logic.CDD, opts Options) (bool, error) {
	res, err := Run(base, tgds, opts)
	if err != nil {
		return false, err
	}
	for _, c := range cdds {
		if homo.CachedPlanWith(homo.CacheKey{Owner: c, Tag: homo.TagBody}, c.Body,
			homo.CompileOpts{Stats: res.Store}).Exists(res.Store) {
			return false, nil
		}
	}
	return true, nil
}

// BottomPred is the reserved predicate used by the ⊥ optimization. It cannot
// clash with user predicates because the parser rejects "!" as an
// identifier.
const BottomPred = "⊥"

// bottomRules memoizes the ⊥-rule compiled from each CDD. Stable rule
// pointers matter beyond saving the allocation: the homomorphism plan cache
// is keyed by rule identity, and IsConsistentOpt runs once per Π-check —
// fresh TGD pointers on every call would compile (and leak) a new plan per
// consistency check instead of reusing one per CDD per session.
var bottomRules sync.Map // *logic.CDD -> *logic.TGD

// CompileBottom turns CDDs into TGDs with head ⊥() so that the chase itself
// detects inconsistency (CheckConsistency-Opt, §5). The returned rules are
// memoized per CDD: repeated calls yield pointer-identical TGDs.
func CompileBottom(cdds []*logic.CDD) []*logic.TGD {
	out := make([]*logic.TGD, len(cdds))
	for i, c := range cdds {
		if v, ok := bottomRules.Load(c); ok {
			out[i] = v.(*logic.TGD)
			continue
		}
		t := &logic.TGD{
			Label: "⊥:" + c.Label,
			Body:  append([]logic.Atom(nil), c.Body...),
			Head:  []logic.Atom{logic.NewAtom(BottomPred)},
		}
		v, _ := bottomRules.LoadOrStore(c, t)
		out[i] = v.(*logic.TGD)
	}
	return out
}

// RelevantTGDs returns the TGDs that can (transitively) contribute to a
// CDD violation: starting from the predicates in CDD bodies, a TGD is
// relevant if its head mentions a relevant predicate, and then its body
// predicates become relevant too. Facts derived by irrelevant TGDs can
// never appear in — or feed a derivation that appears in — a CDD-body
// homomorphism, so consistency checking and conflict detection may safely
// chase only the relevant rules. The result preserves input order.
func RelevantTGDs(tgds []*logic.TGD, cdds []*logic.CDD) []*logic.TGD {
	relevant := make(map[string]bool)
	for _, c := range cdds {
		for _, a := range c.Body {
			relevant[a.Pred] = true
		}
	}
	selected := make([]bool, len(tgds))
	for changed := true; changed; {
		changed = false
		for i, t := range tgds {
			if selected[i] {
				continue
			}
			hit := false
			for _, h := range t.Head {
				if relevant[h.Pred] {
					hit = true
					break
				}
			}
			if !hit {
				continue
			}
			selected[i] = true
			changed = true
			for _, b := range t.Body {
				if !relevant[b.Pred] {
					relevant[b.Pred] = true
				}
			}
		}
	}
	out := make([]*logic.TGD, 0, len(tgds))
	for i, t := range tgds {
		if selected[i] {
			out = append(out, t)
		}
	}
	return out
}

// IsConsistentOpt is CheckConsistency-Opt: it chases with CDDs compiled to
// ⊥-rules — restricted to the TGDs relevant to the CDDs — and stops as
// early as possible. It returns whether the KB is consistent.
func IsConsistentOpt(base *store.Store, tgds []*logic.TGD, cdds []*logic.CDD, opts Options) (bool, error) {
	// Fast path: a CDD already violated by the base facts needs no chase.
	for _, c := range cdds {
		if homo.CachedPlanWith(homo.CacheKey{Owner: c, Tag: homo.TagBody}, c.Body,
			homo.CompileOpts{Stats: base}).Exists(base) {
			return false, nil
		}
	}
	tgds = RelevantTGDs(tgds, cdds)
	if len(tgds) == 0 {
		return true, nil
	}
	rules := append(append([]*logic.TGD(nil), tgds...), CompileBottom(cdds)...)
	res, err := run(base, rules, opts, BottomPred)
	if err != nil {
		return false, err
	}
	return len(res.Store.ByPredicate(BottomPred)) == 0, nil
}

// Answers computes the certain answers of a conjunctive query (body with
// distinguished variables answVars) over the KB (F, ΣT): it chases F and
// evaluates the query on the result, keeping only the all-constant tuples —
// the paper's Q(F, ΣT).
func Answers(base *store.Store, tgds []*logic.TGD, body []logic.Atom, answVars []logic.Term, opts Options) ([][]logic.Term, error) {
	res, err := Run(base, tgds, opts)
	if err != nil {
		return nil, err
	}
	all := homo.Answers(res.Store, body, answVars)
	out := all[:0]
	for _, tuple := range all {
		ok := true
		for _, t := range tuple {
			if !t.IsConst() {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, tuple)
		}
	}
	return out, nil
}
