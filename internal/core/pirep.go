package core

import (
	"errors"
	"fmt"
	"sort"
	"strconv"

	"kbrepair/internal/chase"
	"kbrepair/internal/conflict"
	"kbrepair/internal/logic"
	"kbrepair/internal/obs"
	"kbrepair/internal/store"
)

// Π-repairability instrumentation: how question filtering splits between
// the Π-RepOpt fast path and full Algorithm 1 runs, and what the full runs
// cost. The Π-check metrics break down by cause: the CDD whose conflict
// triggered the question being filtered (see PiChecker.SetCause). The
// PiChecker's own FastHits/FullChecks fields remain the per-session view
// used by the ablation tables.
var (
	mPiFast      = obs.NewRuleCounter("core.pi_fast_hits")
	mPiFull      = obs.NewRuleCounter("core.pi_full_checks")
	mPiCheckTime = obs.NewRuleHistogram("core.pi_check_seconds", obs.LatencyBuckets)
	mCFixChecks  = obs.NewCounter("core.cfix_checks")
)

// Position aliases store.Position; it is re-exported here because the core
// API (fixes, Π sets) speaks in positions constantly.
type Position = store.Position

// Pi is a set of immutable positions Π ⊆ pos(F).
type Pi map[Position]bool

// NewPi builds a Π set from positions.
func NewPi(ps ...Position) Pi {
	pi := make(Pi, len(ps))
	for _, p := range ps {
		pi[p] = true
	}
	return pi
}

// Clone returns a copy of the set.
func (pi Pi) Clone() Pi {
	out := make(Pi, len(pi))
	for p := range pi {
		out[p] = true
	}
	return out
}

// With returns a copy extended with p.
func (pi Pi) With(p Position) Pi {
	out := pi.Clone()
	out[p] = true
	return out
}

// Add inserts p in place.
func (pi Pi) Add(p Position) { pi[p] = true }

// Has reports membership.
func (pi Pi) Has(p Position) bool { return pi[p] }

// piInstance is the Algorithm 1 instance of a fact store under a Π: a store
// with the same fact ids in which every position outside Π holds a unique
// null of the instance's own namespace and every Π position holds its value
// in the source store.
type piInstance struct {
	src    *store.Store // the fact store the instance mirrors
	s      *store.Store
	pinned Pi  // positions currently holding their source value
	nulls  int // labels handed out so far
}

// newPiInstance builds the instance of facts under pi in one pass.
func newPiInstance(facts *store.Store, pi Pi) *piInstance {
	in := &piInstance{src: facts, s: store.New(), pinned: NewPi()}
	for _, id := range facts.IDs() {
		a := facts.Fact(id)
		for i := range a.Args {
			if p := (Position{Fact: id, Arg: i}); pi.Has(p) {
				in.pinned.Add(p)
			} else {
				a.Args[i] = in.fresh()
			}
		}
		in.s.MustAdd(a)
	}
	return in
}

// fresh returns a new null of the instance's namespace. No other source of
// nulls can produce its "pi#<k>" label shape: the parser's _:label syntax
// reads '#' as the start of a comment, store.FreshNull mints "n<digits>"
// and store.CoordNullLabel "n<round>r<rule>t<trig>x<ex>". So the nulls
// minted into kb.Facts between questions (candidate fix values) never
// collide with the instance's own, however long the instance lives.
func (in *piInstance) fresh() logic.Term {
	in.nulls++
	return logic.N("pi#" + strconv.Itoa(in.nulls))
}

// sync patches the instance to pi by the Π delta: positions that left Π
// get a brand-new null, and Π positions whose value differs from the
// source store are set to it. Both deltas are applied in position order,
// so the instance's history — and with it every index list order — is a
// function of the session, not of map iteration.
func (in *piInstance) sync(pi Pi) {
	var left, set []Position
	for p := range in.pinned {
		if !pi.Has(p) {
			left = append(left, p)
		}
	}
	for p := range pi {
		if !in.src.Valid(p.Fact) || p.Arg < 0 || p.Arg >= in.src.Arity(p.Fact) {
			continue
		}
		if !in.pinned.Has(p) || in.s.Value(p) != in.src.Value(p) {
			set = append(set, p)
		}
	}
	sortPositions(left)
	for _, p := range left {
		delete(in.pinned, p)
		in.s.MustSetValue(p, in.fresh())
	}
	sortPositions(set)
	for _, p := range set {
		in.pinned.Add(p)
		in.s.MustSetValue(p, in.src.Value(p))
	}
}

func sortPositions(ps []Position) {
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].Fact != ps[j].Fact {
			return ps[i].Fact < ps[j].Fact
		}
		return ps[i].Arg < ps[j].Arg
	})
}

// PiRepairable implements Algorithm 1 (Π-REP): every position outside Π is
// replaced by a fresh existential variable, and the resulting KB is checked
// for consistency. K is Π-repairable iff that KB is consistent
// (Proposition 3.8). The input KB is not modified.
func PiRepairable(kb *KB, pi Pi) (bool, error) {
	return chase.IsConsistentOpt(newPiInstance(kb.Facts, pi).s, kb.TGDs, kb.CDDs, kb.ChaseOpts)
}

// PiRepairableNaive is Algorithm 1 with the unoptimized consistency check
// (full chase, then CDD evaluation). Kept for the ablation benchmarks.
func PiRepairableNaive(kb *KB, pi Pi) (bool, error) {
	return chase.IsConsistentNaive(newPiInstance(kb.Facts, pi).s, kb.TGDs, kb.CDDs, kb.ChaseOpts)
}

// PiChecker performs the repeated Π-repairability checks of question
// generation, with the Π-RepOpt fast path of §5. Create one per KB/session:
// it caches the set of constants appearing in the rules, and it keeps one
// Π-nulled instance for the whole session, patched by Π deltas at the start
// of each batch instead of rebuilt per question. A PiChecker is not safe
// for concurrent use, and kb.Facts must not change during a CheckBatch.
type PiChecker struct {
	kb        *KB
	ruleConst map[logic.Term]bool
	// Optimized disables the fast path when false (ablation).
	Optimized bool
	// FastHits / FullChecks count how often each path ran (observability
	// for the ablation benchmarks).
	FastHits   int
	FullChecks int
	// inst is the persistent Π-nulled instance (nil until the first full
	// check).
	inst *piInstance
	// pin is the pinned-seed CDD search of the delta check when no TGD is
	// relevant to the CDDs; inc is the semi-naive delta chase when some
	// is. Exactly one of them is set.
	pin *conflict.Pinned
	inc *chase.Incremental
	// cause is the attribution ID of the CDD whose conflict caused the
	// current batch (obs.None when unknown).
	cause obs.ID
	// traceParent is the span id subsequent core.pi_batch spans are
	// parented under (0 for roots).
	traceParent uint64
}

// SetCause attributes subsequent Π-check work to the given ID — the inquiry
// engine sets it to the causing conflict's CDD before each SOUNDQUESTION.
func (pc *PiChecker) SetCause(id obs.ID) { pc.cause = id }

// SetTraceParent parents subsequent Π-batch trace spans under the given
// span id — the inquiry engine points it at the question-generation span
// before each SOUNDQUESTION, mirroring SetCause.
func (pc *PiChecker) SetTraceParent(id uint64) { pc.traceParent = id }

// NewPiChecker builds a checker for the KB with the optimization enabled.
// It also compiles, into the rules' memos, the plan of every rule body and
// the pinned-seed plans of the delta check — the CDD bodies' for a KB whose
// CDDs no TGD feeds, the relevant TGD and CDD bodies' otherwise — against
// the KB's base store. A plan's join order binds at its first compile, and
// the checker's searches run on the Π-nulled instance, where unique nulls
// make every non-Π position look perfectly selective; compiling here costs
// the orders on the real data instead.
func NewPiChecker(kb *KB) *PiChecker {
	chase.PrecompilePlans(kb.Facts, kb.TGDs, kb.CDDs)
	pc := &PiChecker{kb: kb, ruleConst: make(map[logic.Term]bool), Optimized: true, cause: obs.None}
	if pc.inc = chase.NewIncremental(kb.TGDs, kb.CDDs, kb.Facts); pc.inc == nil {
		pc.pin = conflict.NewPinned(kb.CDDs, kb.Facts)
	}
	collect := func(as []logic.Atom) {
		for _, a := range as {
			for _, t := range a.Args {
				if t.IsConst() {
					pc.ruleConst[t] = true
				}
			}
		}
	}
	for _, r := range kb.TGDs {
		collect(r.Body)
		collect(r.Head)
	}
	for _, c := range kb.CDDs {
		collect(c.Body)
	}
	return pc
}

// CheckWithFix decides whether K′ = (apply(F, {f}), ΣT, ΣC) is
// Π′-repairable for Π′ = Π ∪ {f.Pos} — the filtering condition in the loop
// of Algorithm 2 (SOUNDQUESTION, line 13).
//
// Fast path (Π-RepOpt, §5, soundness-hardened per DESIGN.md §3): given that
// K is already Π-repairable, the answer is yes without running a chase when
// the fix value
//
//   - is a labeled null that occurs nowhere in the store (fresh, uniquely
//     attributed to the position — Lemma 4.3(3)); or
//   - is a constant that neither appears at any Π position nor occurs as a
//     constant in any rule. In the Π-nulled instance all remaining values
//     are unique nulls, so such a constant cannot complete any join that a
//     fresh null could not.
//
// Otherwise the full Algorithm 1 check runs on apply(F, {f}).
func (pc *PiChecker) CheckWithFix(pi Pi, f Fix) (bool, error) {
	res, err := pc.CheckBatch(pi, []Fix{f})
	if err != nil {
		return false, err
	}
	return res[0], nil
}

// CheckBatch decides Π′-repairability for a batch of single-fix updates
// sharing the same Π (the filtering loop of one SOUNDQUESTION call). The
// fast path handles most fixes; the remaining full Algorithm 1 checks run
// one after another on the checker's persistent Π-nulled instance, with
// verdicts written by fix index.
func (pc *PiChecker) CheckBatch(pi Pi, fixes []Fix) ([]bool, error) {
	out := make([]bool, len(fixes))
	var fastHits, accepted int64
	var full []int
	// One span covers the whole batch: the full checks' chases are
	// silenced (TraceQuiet), so Π time is attributed here, at batch
	// granularity.
	sp := obs.Start(obs.KindPiBatch, pc.traceParent, len(fixes))
	defer func() {
		mPiFast.AddFor(pc.cause, fastHits)
		sp.End(int(fastHits), len(full), int(accepted))
	}()
	for i, f := range fixes {
		if pc.Optimized && pc.fastSafe(pi, f) {
			pc.FastHits++
			fastHits++
			out[i] = true
			continue
		}
		if f.Pos.Arg < 0 || !pc.kb.Facts.Valid(f.Pos.Fact) || f.Pos.Arg >= pc.kb.Facts.Arity(f.Pos.Fact) {
			return nil, fmt.Errorf("pirep: position %s out of range", f.Pos)
		}
		full = append(full, i)
	}
	pc.FullChecks += len(full)
	mPiFull.AddFor(pc.cause, int64(len(full)))
	if err := pc.runFullChecks(pi, fixes, full, out); err != nil {
		return nil, err
	}
	for _, ok := range out {
		if ok {
			accepted++
		}
	}
	return out, nil
}

// runFullChecks runs Algorithm 1 for each fix index in full on the
// persistent Π-nulled instance. Algorithm 1 on (apply(F,{f}), Π ∪ {f.Pos})
// is exactly the instance under Π with the fix value at the fix position
// (f.Pos is outside Π in every SOUNDQUESTION call, and if it were inside,
// setting it still realizes the hypothetical update).
//
// Each check is one of three kinds (DESIGN.md §3):
//
//   - Pinned (no TGD relevant to the CDDs, and the instance under Π
//     consistent): a CDD violation after the fix must use the one changed
//     fact, so a search with a CDD body atom pinned at that fact decides it
//     (conflict.Pinned — the UpdateConflicts reasoning of §5).
//   - Delta (some TGD relevant, f.Pos outside Π, and the instance's chase
//     consistent within budget): the instance is chased once per batch,
//     and each fix appends the fixed copy of its fact to the chased
//     instance and chases semi-naively from it (chase.Incremental). The
//     fix position holds a null that occurs nowhere else in the instance,
//     so apply(I,{f}) and I ∪ {f′} are homomorphically equivalent.
//   - Full: chase.IsConsistentOpt on the instance in place, with the fix
//     value set; the chase's derived facts are truncated away before it
//     returns. It decides every fix the other two kinds cannot, including
//     a delta that runs out of budget.
func (pc *PiChecker) runFullChecks(pi Pi, fixes []Fix, full []int, out []bool) error {
	if len(full) == 0 {
		return nil
	}
	if pc.inst == nil || pc.inst.src != pc.kb.Facts || pc.inst.s.Len() != pc.kb.Facts.Len() {
		pc.inst = newPiInstance(pc.kb.Facts, pi)
	} else {
		pc.inst.sync(pi)
	}
	s := pc.inst.s
	// The chases stay out of the trace: one SOUNDQUESTION runs hundreds of
	// checks, and CheckBatch's pi_batch span carries the batch's time.
	opts := pc.kb.ChaseOpts
	opts.TraceQuiet = true
	var rest []int
	var err error
	if pc.pin != nil {
		rest, err = pc.pinnedChecks(s, fixes, full, out, opts)
	} else {
		rest, err = pc.deltaChecks(pi, s, fixes, full, out, opts)
	}
	if err != nil {
		return err
	}
	for _, i := range rest {
		f := fixes[i]
		prev := s.MustSetValue(f.Pos, f.Value)
		tm := obs.StartTimer()
		ok, err := chase.IsConsistentOpt(s, pc.kb.TGDs, pc.kb.CDDs, opts)
		mPiCheckTime.SinceFor(pc.cause, tm)
		s.MustSetValue(f.Pos, prev)
		if err != nil {
			return err
		}
		out[i] = ok
	}
	return nil
}

// pinnedChecks decides the fixes of a CDD-only KB by the pinned CDD search
// at the changed fact, if the instance under Π is consistent. It returns
// the fixes left to the full check: none, or all of them.
func (pc *PiChecker) pinnedChecks(s *store.Store, fixes []Fix, full []int, out []bool, opts chase.Options) ([]int, error) {
	ok, err := chase.IsConsistentOpt(s, pc.kb.TGDs, pc.kb.CDDs, opts)
	if err != nil || !ok {
		return full, err
	}
	for _, i := range full {
		f := fixes[i]
		prev := s.MustSetValue(f.Pos, f.Value)
		tm := obs.StartTimer()
		out[i] = !pc.pin.Each(s, f.Pos.Fact, nil)
		mPiCheckTime.SinceFor(pc.cause, tm)
		s.MustSetValue(f.Pos, prev)
	}
	return nil, nil
}

// deltaChecks chases the instance under Π once and decides each fix at a
// position outside Π by the semi-naive delta from its fixed fact. It
// returns the fixes left to the full check: those at Π positions, those
// whose delta ran out of budget, and all of them when the instance's own
// chase is inconsistent or runs out of budget. The instance is back at
// |F| facts when it returns.
func (pc *PiChecker) deltaChecks(pi Pi, s *store.Store, fixes []Fix, full []int, out []bool, opts chase.Options) ([]int, error) {
	n := s.Len()
	defer s.Truncate(n)
	sat, ok, err := pc.inc.Saturate(s, opts)
	if err != nil || !ok {
		return full, nil
	}
	var rest []int
	for _, i := range full {
		f := fixes[i]
		if pi.Has(f.Pos) {
			rest = append(rest, i)
			continue
		}
		a := s.Fact(f.Pos.Fact)
		a.Args[f.Pos.Arg] = f.Value
		tm := obs.StartTimer()
		ok, err := pc.inc.ConsistentWith(s, a, sat, opts)
		mPiCheckTime.SinceFor(pc.cause, tm)
		switch {
		case errors.Is(err, chase.ErrBudget):
			rest = append(rest, i)
		case err != nil:
			return nil, err
		default:
			out[i] = ok
		}
	}
	return rest, nil
}

// fastSafe reports whether the fix value is provably harmless (see
// CheckWithFix).
func (pc *PiChecker) fastSafe(pi Pi, f Fix) bool {
	v := f.Value
	switch v.Kind {
	case logic.Null:
		// Safe iff the null occurs nowhere in the current store: being at
		// the fixed position itself is impossible since a fix must change
		// the value, and uniqueness makes it joinless.
		return !pc.occursInStore(v)
	case logic.Const:
		if pc.ruleConst[v] {
			return false
		}
		for p := range pi {
			if p != f.Pos && pc.kb.Facts.Value(p) == v {
				return false
			}
		}
		// The constant must also not occur at the fix's own fact-sibling
		// positions inside Π (covered above) — but it may freely occur at
		// non-Π positions, which are nulled in the hypothetical instance.
		// A single-atom CDD with a repeated variable could still be
		// triggered by v joining with itself inside one atom if another
		// position of the *same fact* is in Π with value v — covered by
		// the Π scan as well. Safe.
		return true
	default:
		return false
	}
}

func (pc *PiChecker) occursInStore(t logic.Term) bool {
	return pc.kb.Facts.OccursAnywhere(t)
}
