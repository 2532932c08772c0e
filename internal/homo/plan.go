package homo

import (
	"sync"

	"kbrepair/internal/logic"
	"kbrepair/internal/obs"
	"kbrepair/internal/store"
)

// Plan-compiler instrumentation: how many conjunctions were compiled and how
// often a compiled plan was served from the rule-keyed cache. A healthy
// session compiles each rule body once and then hits the cache for the
// remaining thousands of searches.
var (
	mPlanCompiles = obs.NewCounter("homo.plan_compiles")
	mPlanHits     = obs.NewCounter("homo.plan_cache_hits")
)

// Per-body breakdown of search cost that has no global total: every search
// flushes it against the plan's interned body key, so the profile can rank
// bodies by tree size and self-time.
var (
	attrMatches   = obs.NewRuleOnlyCounter(obs.FamMatches)
	attrNodesPer  = obs.NewRuleOnlyHistogram(obs.FamNodesPerSearch, obs.SizeBuckets)
	attrProbesPer = obs.NewRuleOnlyHistogram(obs.FamProbesPerSearch, obs.SizeBuckets)
	attrTime      = obs.NewRuleOnlyHistogram(obs.FamSearchSeconds, obs.LatencyBuckets)
)

// bodyKey is the content-addressed attribution key of a conjunction: the
// canonical rendering of its atoms, identical across KB clones, reps and
// worker counts wherever the same body is compiled.
func bodyKey(body []logic.Atom) string {
	if len(body) == 0 {
		return "(empty)"
	}
	return logic.AtomsString(body)
}

// planArg is one argument position of a compiled atom: either a ground term
// that candidate facts must match exactly, or a variable slot into the
// executor's flat binding array.
type planArg struct {
	slot int        // variable slot; -1 for a ground term
	term logic.Term // the ground term when slot < 0
}

// planAtom is one body atom with its variables interned to integer slots.
type planAtom struct {
	pred  string
	arity int
	args  []planArg
	slots []int // distinct slots occurring in this atom
}

// Plan is a conjunction compiled for repeated execution: variables interned
// to dense integer slots, ground positions precomputed, and a per-slot
// reverse index (slotAtoms) that tells the executor which atoms' candidate
// sets are invalidated when a slot binds or unbinds. A Plan is immutable
// after Compile and safe for concurrent use; per-search mutable state lives
// in pooled exec instances.
type Plan struct {
	atoms     []planAtom
	vars      []logic.Term // slot -> variable term
	slotOf    map[logic.Term]int
	slotAtoms [][]int // slot -> indices of atoms mentioning it
	pool      sync.Pool
	// mode is the kernel resolved at compile time (static or wcoj).
	mode Mode
	// order is the static kernel's atom visit order; vorder is the wcoj
	// kernel's slot binding order. Only the resolved mode's field is set.
	order  []int
	vorder []int
	// aid is the interned attribution key of the body, resolved at compile
	// time (obs.None when attribution was off then — plans compiled before
	// obs.SetAttrEnabled record unattributed, which the CLIs avoid by
	// enabling attribution before any work).
	aid obs.ID
}

// Mode returns the kernel the plan was compiled for.
func (p *Plan) Mode() Mode { return p.mode }

// Compile builds an execution plan for body with default options: automatic
// kernel selection and a structural (stats-free) join order. Call sites that
// know the store the plan will run against should prefer CompileWith with
// Stats so the orderer sees real cardinalities.
func Compile(body []logic.Atom) *Plan {
	return CompileWith(body, CompileOpts{})
}

// CompileWith builds an execution plan for body. The kernel and the join
// order are fixed here, once: the cost-based orderer (order.go) picks the
// atom sequence from opts.Stats cardinalities and bound-slot connectivity,
// cyclic bodies get the generic-join kernel, and opts.Prebound slots count
// as bound from the start (seed-specialized plans).
func CompileWith(body []logic.Atom, opts CompileOpts) *Plan {
	mPlanCompiles.Inc()
	p := &Plan{
		atoms:  make([]planAtom, len(body)),
		slotOf: make(map[logic.Term]int),
		aid:    obs.None,
	}
	if obs.AttrEnabled() {
		p.aid = obs.Intern(bodyKey(body))
	}
	for i, a := range body {
		pa := planAtom{pred: a.Pred, arity: len(a.Args), args: make([]planArg, len(a.Args))}
		for j, t := range a.Args {
			if !t.IsVar() {
				pa.args[j] = planArg{slot: -1, term: t}
				continue
			}
			s, ok := p.slotOf[t]
			if !ok {
				s = len(p.vars)
				p.slotOf[t] = s
				p.vars = append(p.vars, t)
				p.slotAtoms = append(p.slotAtoms, nil)
			}
			pa.args[j] = planArg{slot: s}
			if n := len(pa.slots); n == 0 || !containsInt(pa.slots, s) {
				pa.slots = append(pa.slots, s)
				p.slotAtoms[s] = append(p.slotAtoms[s], i)
			}
		}
		p.atoms[i] = pa
	}
	pre := make([]bool, len(p.vars))
	var preNames []string
	for _, v := range opts.Prebound {
		if sl, ok := p.slotOf[v]; ok {
			pre[sl] = true
		}
		preNames = append(preNames, v.Name)
	}
	mode := opts.Mode
	forced := mode != ModeAuto
	if mode == ModeAuto {
		if p.isCyclic() {
			mode = ModeWCOJ
		} else {
			mode = ModeStatic
		}
	}
	p.mode = mode
	var orderDesc []string
	switch mode {
	case ModeWCOJ:
		p.vorder = p.wcojOrder()
		for _, s := range p.vorder {
			orderDesc = append(orderDesc, p.vars[s].Name)
		}
	case ModeStatic:
		p.order = p.staticOrder(opts.Stats, pre)
		for _, i := range p.order {
			orderDesc = append(orderDesc, body[i].String())
		}
	}
	if len(body) > 0 {
		recordPlanInfo(PlanInfo{
			Body:     bodyKey(body),
			Mode:     mode.String(),
			Order:    orderDesc,
			Prebound: preNames,
			Stats:    opts.Stats != nil,
			Forced:   forced,
		})
	}
	p.pool.New = func() any { return newExec(p) }
	return p
}

func containsInt(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// Cache tags distinguish the conjunctions compiled from one rule. Pinned
// plans (the conflict tracker's body-minus-one-atom tasks) use TagPinned+i
// for pinned atom index i.
const (
	TagBody   = 0
	TagHead   = 1
	TagPinned = 2
)

// CacheKey identifies a compiled conjunction in the process-wide plan cache.
// Owner must be a stable comparable identity for the conjunction — in
// practice the *logic.TGD or *logic.CDD pointer, which is shared across KB
// clones and lives for the session. Spec is the compile-option fingerprint
// (kernel mode + prebound variables); CachedPlanWith fills it from the
// options, so differently specialized plans of one rule never collide.
type CacheKey struct {
	Owner any
	Tag   int
	Spec  string
}

var (
	planCache sync.Map // CacheKey -> *Plan
	// planCompileMu serializes cache misses so each key compiles exactly
	// once. The old LoadOrStore race compiled a key twice when two workers
	// missed together — harmless for the plans (the loser was dropped) but
	// it made homo.plan_compiles / homo.plan_cache_hits depend on
	// scheduling, which the profile's cache-hit rate must not.
	planCompileMu sync.Mutex
)

// CachedPlan returns the compiled plan for key, compiling body on first use
// with default options. The cache is keyed by rule identity, not body
// contents: callers must pass the same body for the same key every time
// (rules are immutable, so this holds for all rule-derived conjunctions).
func CachedPlan(key CacheKey, body []logic.Atom) *Plan {
	return CachedPlanWith(key, body, CompileOpts{})
}

// CachedPlanWith is CachedPlan with explicit compile options. The options'
// mode and prebound variables join the cache key, so a rule can hold both a
// general and a seed-specialized plan; Stats do not (the first compile for a
// key binds the order — compile at a point where the store is representative,
// e.g. chase.PrecompilePlans before any parallel fan-out).
func CachedPlanWith(key CacheKey, body []logic.Atom, opts CompileOpts) *Plan {
	key.Spec = opts.spec()
	if v, ok := planCache.Load(key); ok {
		mPlanHits.Inc()
		return v.(*Plan)
	}
	planCompileMu.Lock()
	defer planCompileMu.Unlock()
	if v, ok := planCache.Load(key); ok {
		mPlanHits.Inc()
		return v.(*Plan)
	}
	p := CompileWith(body, opts)
	planCache.Store(key, p)
	return p
}

// exec is the per-search mutable state of a plan: a flat binding array
// indexed by slot, an undo trail, and a per-atom candidate-list cache with
// dirty flags. Instances are pooled per plan so a cached-plan search
// allocates nothing.
type exec struct {
	p  *Plan
	s  *store.Store
	fn func(Match) bool

	bind  []logic.Term // slot -> bound term
	set   []bool       // slot -> bound?
	trail []int        // bound slots in binding order; undo = truncate

	facts []store.FactID

	// Candidate cache: cands[i] is valid while fresh[i] holds. A slot
	// binding or unbinding clears fresh for every atom mentioning the slot
	// (Plan.slotAtoms), so each index is probed once per binding change
	// rather than once per backtrack node.
	cands [][]store.FactID
	fresh []bool

	// Generic-join state (wcoj plans only): the unbound slots of this search
	// in binding order, and per-level distinct-value sets, reused across
	// searches so the steady state allocates nothing.
	wslots []int
	wseen  []map[logic.Term]struct{}

	// scratch is the Subst materialized for fn at each match; like the
	// reference executor's live map it is only valid during the callback.
	scratch logic.Subst
	// Seed bindings for variables that have no slot (not mentioned in the
	// body, e.g. head variables in tracker seeds); appended at match time.
	extraV []logic.Term
	extraT []logic.Term

	stopped bool
	matched bool
	nodes   int64
	probes  int64
	matches int64
}

func newExec(p *Plan) *exec {
	n := len(p.atoms)
	e := &exec{
		p:       p,
		bind:    make([]logic.Term, len(p.vars)),
		set:     make([]bool, len(p.vars)),
		trail:   make([]int, 0, len(p.vars)),
		facts:   make([]store.FactID, n),
		cands:   make([][]store.FactID, n),
		fresh:   make([]bool, n),
		scratch: logic.NewSubst(),
	}
	if p.mode == ModeWCOJ {
		e.wslots = make([]int, 0, len(p.vars))
		e.wseen = make([]map[logic.Term]struct{}, len(p.vars))
		for i := range e.wseen {
			e.wseen[i] = make(map[logic.Term]struct{})
		}
	}
	return e
}

func (e *exec) reset(s *store.Store, seed logic.Subst, fn func(Match) bool) {
	e.s, e.fn = s, fn
	for i := range e.set {
		e.set[i] = false
	}
	for i := range e.fresh {
		e.fresh[i] = false
	}
	e.trail = e.trail[:0]
	e.extraV = e.extraV[:0]
	e.extraT = e.extraT[:0]
	e.stopped, e.matched = false, false
	e.nodes, e.probes, e.matches = 0, 0, 0
	for v, t := range seed {
		if sl, ok := e.p.slotOf[v]; ok {
			e.bind[sl] = t
			e.set[sl] = true
		} else {
			e.extraV = append(e.extraV, v)
			e.extraT = append(e.extraT, t)
		}
	}
}

// release drops references into the store so pooled executors do not pin
// candidate index slices (or the store itself) between searches.
func (e *exec) release() {
	e.s, e.fn = nil, nil
	for i := range e.cands {
		e.cands[i] = nil
	}
}

// runStatic matches the atoms in the plan's compile-time order, with
// one-step forward checking: after extending the bindings it peeks at the
// next atom's candidate list — served from the per-atom cache, so the peek
// costs at most one index probe — and skips the child node outright when
// the list is empty. A kernel without the peek pays a full node to discover
// the same dead end, so at equal order quality static trees are strictly
// smaller on failing branches.
func (e *exec) runStatic(depth int) {
	if e.stopped {
		return
	}
	e.nodes++
	if depth == len(e.p.atoms) {
		e.matches++
		if e.fn == nil { // exists-only mode
			e.matched = true
			e.stopped = true
			return
		}
		if !e.fn(Match{Subst: e.materialize(), Facts: e.facts}) {
			e.stopped = true
		}
		return
	}
	idx := e.p.order[depth]
	cands := e.candidates(idx)
	last := depth+1 == len(e.p.atoms)
	for _, fid := range cands {
		fact := e.s.FactRef(fid)
		mark := len(e.trail)
		if e.matchAtom(idx, fact) {
			e.facts[idx] = fid
			if last || len(e.candidates(e.p.order[depth+1])) > 0 {
				e.runStatic(depth + 1)
			}
		}
		e.undo(mark)
		if e.stopped {
			break
		}
	}
}

// candidates returns the most selective index list for atom i, recomputing
// only when a slot of the atom changed since the last probe. The probe
// selection order (predicate index first, then argument positions left to
// right, strictly smaller wins) matches the reference executor exactly — the
// chosen list's identity, not just its length, determines enumeration order.
func (e *exec) candidates(i int) []store.FactID {
	if e.fresh[i] {
		return e.cands[i]
	}
	a := &e.p.atoms[i]
	e.probes++
	best := e.s.CandidatesByPred(a.pred)
	for j := range a.args {
		pa := a.args[j]
		var g logic.Term
		if pa.slot < 0 {
			g = pa.term
		} else if e.set[pa.slot] {
			g = e.bind[pa.slot]
		} else {
			continue
		}
		if !g.IsGround() {
			continue
		}
		e.probes++
		c := e.s.Candidates(a.pred, j, g)
		if len(c) < len(best) {
			best = c
		}
	}
	e.cands[i] = best
	e.fresh[i] = true
	return best
}

// matchAtom extends the bindings so atom i maps onto fact, pushing newly
// bound slots onto the trail. On failure, partially pushed bindings are left
// on the trail for the caller's undo — run always undoes to its mark.
func (e *exec) matchAtom(i int, fact logic.Atom) bool {
	a := &e.p.atoms[i]
	if a.pred != fact.Pred || a.arity != len(fact.Args) {
		return false
	}
	for j, pa := range a.args {
		ft := fact.Args[j]
		if pa.slot < 0 {
			if pa.term != ft {
				return false
			}
			continue
		}
		if e.set[pa.slot] {
			if e.bind[pa.slot] != ft {
				return false
			}
			continue
		}
		e.bind[pa.slot] = ft
		e.set[pa.slot] = true
		e.trail = append(e.trail, pa.slot)
		for _, ai := range e.p.slotAtoms[pa.slot] {
			e.fresh[ai] = false
		}
	}
	return true
}

// undo unbinds every slot past mark and invalidates the affected atoms'
// candidate caches.
func (e *exec) undo(mark int) {
	for k := len(e.trail) - 1; k >= mark; k-- {
		sl := e.trail[k]
		e.set[sl] = false
		for _, ai := range e.p.slotAtoms[sl] {
			e.fresh[ai] = false
		}
	}
	e.trail = e.trail[:mark]
}

// materialize refills the scratch Subst from the binding array plus any
// non-body seed bindings. At a full match every plan slot is bound.
func (e *exec) materialize() logic.Subst {
	m := e.scratch
	clear(m)
	for i, v := range e.p.vars {
		if e.set[i] {
			m[v] = e.bind[i]
		}
	}
	for i, v := range e.extraV {
		m[v] = e.extraT[i]
	}
	return m
}

// ForEach enumerates homomorphisms from the plan's conjunction to s. The
// Match passed to fn is only valid during the call; clone it to retain it.
// Returning false from fn stops the enumeration.
func (p *Plan) ForEach(s *store.Store, fn func(Match) bool) {
	p.ForEachSeeded(s, nil, fn)
}

// ForEachSeeded is ForEach with an initial partial substitution; only
// homomorphisms extending seed are enumerated. seed may be nil.
func (p *Plan) ForEachSeeded(s *store.Store, seed logic.Subst, fn func(Match) bool) {
	p.search(s, seed, fn)
}

// Exists reports whether at least one homomorphism exists (boolean
// conjunctive query evaluation). No Subst is materialized.
func (p *Plan) Exists(s *store.Store) bool {
	return p.search(s, nil, nil)
}

// ExistsSeeded reports whether a homomorphism extending seed exists.
func (p *Plan) ExistsSeeded(s *store.Store, seed logic.Subst) bool {
	return p.search(s, seed, nil)
}

// search runs one execution of the plan; fn == nil means exists-only mode
// (stop at the first match, no Subst materialization). Returns whether a
// match was found.
func (p *Plan) search(s *store.Store, seed logic.Subst, fn func(Match) bool) bool {
	mSearches.AddFor(p.aid, 1)
	tm := obs.StartTimer()
	if len(p.atoms) == 0 {
		if fn != nil {
			sub := seed
			if sub == nil {
				sub = logic.NewSubst()
			}
			fn(Match{Subst: sub, Facts: nil})
		}
		obs.Point(obs.KindHomoSearch, "", 0, 0, 0, 1)
		mTime.Since(tm)
		if obs.AttrEnabled() {
			attrMatches.AddFor(p.aid, 1)
			attrNodesPer.ObserveFor(p.aid, 0)
			attrProbesPer.ObserveFor(p.aid, 0)
			attrTime.SinceFor(p.aid, tm)
		}
		return true
	}
	e := p.pool.Get().(*exec)
	e.reset(s, seed, fn)
	switch p.mode {
	case ModeWCOJ:
		e.runWCOJ()
	default:
		e.runStatic(0)
	}
	matched := e.matched || e.matches > 0
	mNodes.AddFor(p.aid, e.nodes)
	mProbes.AddFor(p.aid, e.probes)
	obs.Point(obs.KindHomoSearch, "", len(p.atoms), int(e.nodes), int(e.probes), int(e.matches))
	mTime.Since(tm)
	if obs.AttrEnabled() {
		attrMatches.AddFor(p.aid, e.matches)
		attrNodesPer.ObserveFor(p.aid, float64(e.nodes))
		attrProbesPer.ObserveFor(p.aid, float64(e.probes))
		attrTime.SinceFor(p.aid, tm)
	}
	e.release()
	p.pool.Put(e)
	return matched
}
