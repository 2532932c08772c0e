package core

import (
	"fmt"
	"sync/atomic"

	"kbrepair/internal/chase"
	"kbrepair/internal/logic"
	"kbrepair/internal/obs"
	"kbrepair/internal/par"
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

// nulledCopy builds the Algorithm 1 instance in one pass: a store with the
// same fact ids where every position outside Π holds a fresh existential
// variable and Π positions keep their values.
func nulledCopy(facts *store.Store, pi Pi) *store.Store {
	out := store.New()
	// Never allocate a null label the source store may already contain (at
	// a Π position) or may already have handed out as a candidate fix
	// value — a label collision would fabricate joins.
	out.ReserveNulls(facts.NullSeq())
	for _, id := range facts.IDs() {
		a := facts.Fact(id)
		for i := range a.Args {
			if !pi.Has(Position{Fact: id, Arg: i}) {
				a.Args[i] = out.FreshNull()
			}
		}
		out.MustAdd(a)
	}
	return out
}

// PiRepairable implements Algorithm 1 (Π-REP): every position outside Π is
// replaced by a fresh existential variable, and the resulting KB is checked
// for consistency. K is Π-repairable iff that KB is consistent
// (Proposition 3.8). The input KB is not modified.
func PiRepairable(kb *KB, pi Pi) (bool, error) {
	return chase.IsConsistentOpt(nulledCopy(kb.Facts, pi), kb.TGDs, kb.CDDs, kb.ChaseOpts)
}

// PiRepairableNaive is Algorithm 1 with the unoptimized consistency check
// (full chase, then CDD evaluation). Kept for the ablation benchmarks.
func PiRepairableNaive(kb *KB, pi Pi) (bool, error) {
	return chase.IsConsistentNaive(nulledCopy(kb.Facts, pi), kb.TGDs, kb.CDDs, kb.ChaseOpts)
}

// PiChecker performs the repeated Π-repairability checks of question
// generation, with the Π-RepOpt fast path of §5. Create one per KB/session;
// it caches the set of constants appearing in the rules.
type PiChecker struct {
	kb        *KB
	ruleConst map[logic.Term]bool
	// Optimized disables the fast path when false (ablation).
	Optimized bool
	// FastHits / FullChecks count how often each path ran (observability
	// for the ablation benchmarks).
	FastHits   int
	FullChecks int
	// cause is the attribution ID of the CDD whose conflict caused the
	// current batch (obs.None when unknown). Atomic because checkChunk
	// reads it from worker goroutines.
	cause atomic.Int32
	// traceParent is the span id subsequent core.pi_batch spans are
	// parented under (0 for roots). Atomic for the same reason as cause:
	// set by the engine goroutine, consistent to read anywhere.
	traceParent atomic.Uint64
}

// SetCause attributes subsequent Π-check work to the given ID — the inquiry
// engine sets it to the causing conflict's CDD before each SOUNDQUESTION.
func (pc *PiChecker) SetCause(id obs.ID) { pc.cause.Store(int32(id)) }

// SetTraceParent parents subsequent Π-batch trace spans under the given
// span id — the inquiry engine points it at the question-generation span
// before each SOUNDQUESTION, mirroring SetCause.
func (pc *PiChecker) SetTraceParent(id uint64) { pc.traceParent.Store(id) }

// NewPiChecker builds a checker for the KB with the optimization enabled.
// It also warms the plan cache for every rule body against the KB's base
// store: the checker's full checks fan out across workers on per-chunk
// clone stores, and a first compile racing in a worker would bind join
// orders to whichever clone won — warming here keeps orders deterministic.
func NewPiChecker(kb *KB) *PiChecker {
	chase.PrecompilePlans(kb.Facts, kb.TGDs, kb.CDDs)
	pc := &PiChecker{kb: kb, ruleConst: make(map[logic.Term]bool), Optimized: true}
	pc.cause.Store(int32(obs.None))
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
// fast path handles most fixes sequentially; the remaining full Algorithm 1
// checks are independent of each other and fan out across the worker pool
// (one Π-nulled instance per chunk), with verdicts written by fix index so
// the result — and therefore question order — is byte-identical at every
// worker count.
func (pc *PiChecker) CheckBatch(pi Pi, fixes []Fix) ([]bool, error) {
	out := make([]bool, len(fixes))
	var fastHits, accepted int64
	var full []int
	// One span covers the whole batch: the full checks run inside worker
	// goroutines with their chases silenced (TraceQuiet), so Π time is
	// attributed here, at batch granularity, deterministically.
	sp := obs.Start(obs.KindPiBatch, pc.traceParent.Load(), len(fixes))
	cause := obs.ID(pc.cause.Load())
	defer func() {
		mPiFast.AddFor(cause, fastHits)
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
	mPiFull.AddFor(cause, int64(len(full)))
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

// runFullChecks runs the full Algorithm 1 checks of a batch (fix indices in
// full). With one worker — or a single check — everything runs inline on
// one shared nulled instance, the sequential baseline. Otherwise the
// indices split into at most Workers() contiguous chunks, each chunk with
// its own Π-nulled instance (checks only read pc.kb and mutate their own
// copy, so they are independent). Verdicts land in out by fix index, never
// by completion order.
func (pc *PiChecker) runFullChecks(pi Pi, fixes []Fix, full []int, out []bool) error {
	if len(full) == 0 {
		return nil
	}
	w := par.Workers()
	if w > len(full) {
		w = len(full)
	}
	if w <= 1 {
		return pc.checkChunk(pi, fixes, full, out)
	}
	chunks := make([][]int, 0, w)
	for g := 0; g < w; g++ {
		lo, hi := g*len(full)/w, (g+1)*len(full)/w
		if lo < hi {
			chunks = append(chunks, full[lo:hi])
		}
	}
	errs := par.MapNamed("core.pi", len(chunks), func(g int) error {
		return pc.checkChunk(pi, fixes, chunks[g], out)
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// checkChunk runs Algorithm 1 for each fix index in idxs on one shared
// Π-nulled instance, mutating only the fix position between checks.
func (pc *PiChecker) checkChunk(pi Pi, fixes []Fix, idxs []int, out []bool) error {
	nulled := nulledCopy(pc.kb.Facts, pi)
	cause := obs.ID(pc.cause.Load())
	// Chunks may run on worker goroutines: their chases stay out of the
	// trace (interleaved spans from racing workers would make the trace
	// depend on the worker count). CheckBatch's pi_batch span carries the
	// batch's time instead.
	opts := pc.kb.ChaseOpts
	opts.TraceQuiet = true
	for _, i := range idxs {
		f := fixes[i]
		// Algorithm 1 on (apply(F,{f}), Π ∪ {f.Pos}) is exactly the nulled
		// instance with the fix value at the fix position. (Π positions of
		// the nulled store keep their values; f.Pos is outside Π in every
		// SOUNDQUESTION call, and if it were inside, setting it below
		// still realizes the hypothetical update.)
		prev := nulled.MustSetValue(f.Pos, f.Value)
		tm := obs.StartTimer()
		ok, err := chase.IsConsistentOpt(nulled, pc.kb.TGDs, pc.kb.CDDs, opts)
		mPiCheckTime.SinceFor(cause, tm)
		nulled.MustSetValue(f.Pos, prev)
		if err != nil {
			return err
		}
		out[i] = ok
	}
	return nil
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
