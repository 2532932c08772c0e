package homo

import (
	"sort"
	"strings"
	"sync"

	"kbrepair/internal/logic"
	"kbrepair/internal/obs/flight"
	"kbrepair/internal/store"
)

// Debug bundles carry the plan annotations as their plans.json section, so
// a post-mortem shows which order and kernel every body actually ran with.
func init() {
	flight.SetPlansProvider(func() any {
		infos := PlanInfos()
		if len(infos) == 0 {
			return nil
		}
		return infos
	})
}

// Mode identifies the execution kernel a plan was compiled for.
type Mode uint8

const (
	// ModeAuto lets Compile choose: the generic-join kernel for cyclic
	// bodies, the static-order backtracking kernel for everything else.
	ModeAuto Mode = iota
	// ModeStatic executes the atoms in a fixed order chosen at compile time
	// by the cost-based orderer, with one-step forward checking.
	ModeStatic
	// ModeWCOJ executes a variable-at-a-time generic join (leapfrog-style):
	// slots are bound one at a time by intersecting the candidate lists of
	// every atom mentioning the slot, which is worst-case optimal on cyclic
	// bodies where any atom-at-a-time order enumerates spurious prefixes.
	ModeWCOJ
)

func (m Mode) String() string {
	switch m {
	case ModeStatic:
		return "static"
	case ModeWCOJ:
		return "wcoj"
	default:
		return "auto"
	}
}

// CompileOpts direct plan compilation. The zero value compiles with a
// structural order and automatic kernel selection.
type CompileOpts struct {
	// Stats supplies predicate cardinalities and active-domain sizes for the
	// cost-based orderer. The order binds at compile time: pass the store the
	// plan will mostly run against. nil falls back to a structural order.
	Stats *store.Store
	// Prebound lists variables guaranteed bound by the seed before every
	// search (seed-specialized plans: the tracker's pinned-atom bindings,
	// TGD head checks seeded with frontier bindings). They count as bound
	// slots for ordering and join the cache key.
	Prebound []logic.Term
	// Mode forces a kernel; ModeAuto (the default) selects static or wcoj.
	Mode Mode
}

// spec is the cache-key fingerprint of the options: kernel mode and prebound
// variables. Stats stay out — they inform the order but two compiles of the
// same rule must share one plan, bound by whichever store compiled first
// (call sites compile at deterministic points, see chase.PrecompilePlans).
func (o CompileOpts) spec() string {
	if o.Mode == ModeAuto && len(o.Prebound) == 0 {
		return ""
	}
	var sb strings.Builder
	sb.WriteString("m=")
	sb.WriteString(o.Mode.String())
	if len(o.Prebound) > 0 {
		sb.WriteString(";pre=")
		for i, v := range o.Prebound {
			if i > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(v.Name)
		}
	}
	return sb.String()
}

// isCyclic reports whether the body hypergraph — atoms as hyperedges over
// variable slots — is not α-acyclic, by GYO ear removal: repeatedly remove
// an atom whose slots are either private to it or all contained in a single
// other atom; the body is acyclic iff everything can be removed. Triangles
// (r(x,y), s(y,z), t(z,x)) survive every pass and get the WCOJ kernel.
func (p *Plan) isCyclic() bool {
	n := len(p.atoms)
	if n < 3 {
		return false
	}
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	remaining := n
	for changed := true; changed; {
		changed = false
		for i := 0; i < n; i++ {
			if !alive[i] || !p.isEar(i, alive) {
				continue
			}
			alive[i] = false
			remaining--
			changed = true
		}
	}
	return remaining > 0
}

// isEar reports whether alive atom i is a GYO ear: every slot it shares
// with another alive atom is contained in one single alive witness atom.
func (p *Plan) isEar(i int, alive []bool) bool {
	var shared []int
	for _, s := range p.atoms[i].slots {
		for _, aj := range p.slotAtoms[s] {
			if aj != i && alive[aj] {
				shared = append(shared, s)
				break
			}
		}
	}
	if len(shared) == 0 {
		return true
	}
	// A witness must contain every shared slot; it suffices to test the
	// atoms containing the first one.
	for _, w := range p.slotAtoms[shared[0]] {
		if w == i || !alive[w] {
			continue
		}
		ok := true
		for _, s := range shared[1:] {
			if !containsInt(p.atoms[w].slots, s) {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// staticOrder picks the atom visit order at compile time: greedily take the
// atom with the smallest estimated candidate count, restricted — whenever
// any candidate connects — to atoms sharing a bound slot, so the plan never
// degenerates into a cartesian product the data does not force. Ties break
// by body position, keeping the choice deterministic.
func (p *Plan) staticOrder(st *store.Store, pre []bool) []int {
	n := len(p.atoms)
	order := make([]int, 0, n)
	used := make([]bool, n)
	bound := make([]bool, len(p.vars))
	copy(bound, pre)
	for len(order) < n {
		connectedOnly := false
		for i := 0; i < n; i++ {
			if !used[i] && p.connected(i, bound) {
				connectedOnly = true
				break
			}
		}
		best, bestCost := -1, 0
		for i := 0; i < n; i++ {
			if used[i] {
				continue
			}
			if connectedOnly && !p.connected(i, bound) {
				continue
			}
			c := p.atomCost(i, st, bound)
			if best < 0 || c < bestCost {
				best, bestCost = i, c
			}
		}
		order = append(order, best)
		used[best] = true
		for _, s := range p.atoms[best].slots {
			bound[s] = true
		}
	}
	return order
}

// connected reports whether atom i touches a bound slot (or has none to
// touch — all-ground atoms are pure existence checks and may run anywhere).
func (p *Plan) connected(i int, bound []bool) bool {
	a := &p.atoms[i]
	if len(a.slots) == 0 {
		return true
	}
	for _, s := range a.slots {
		if bound[s] {
			return true
		}
	}
	return false
}

// atomCost estimates how many candidate facts atom i would enumerate if
// scheduled next. With stats it is the executor's own probe rule at compile
// time: the predicate cardinality, improved by exact candidate counts for
// ground arguments and by |pred| / adom-size selectivity for bound slots.
// Without stats a structural proxy ranks atoms by unbound slots (fewer is
// better), then ground arguments (more is better).
func (p *Plan) atomCost(i int, st *store.Store, bound []bool) int {
	a := &p.atoms[i]
	if st == nil {
		unbound := 0
		for _, s := range a.slots {
			if !bound[s] {
				unbound++
			}
		}
		ground := 0
		for _, pa := range a.args {
			if pa.slot < 0 {
				ground++
			}
		}
		return unbound*1024 - ground
	}
	base := len(st.CandidatesByPred(a.pred))
	cost := base
	for j, pa := range a.args {
		if pa.slot < 0 {
			if pa.term.IsGround() {
				if c := len(st.Candidates(a.pred, j, pa.term)); c < cost {
					cost = c
				}
			}
			continue
		}
		if bound[pa.slot] {
			if ad := st.ActiveDomainSize(a.pred, j); ad > 0 {
				est := base / ad
				if est < 1 {
					est = 1
				}
				if est < cost {
					cost = est
				}
			}
		}
	}
	return cost
}

// wcojOrder is the generic-join variable order: slots shared by the most
// atoms first (they constrain the most posting lists), ties by slot index.
func (p *Plan) wcojOrder() []int {
	ord := make([]int, len(p.vars))
	for i := range ord {
		ord[i] = i
	}
	sort.SliceStable(ord, func(a, b int) bool {
		ca, cb := len(p.slotAtoms[ord[a]]), len(p.slotAtoms[ord[b]])
		if ca != cb {
			return ca > cb
		}
		return ord[a] < ord[b]
	})
	return ord
}

// PlanInfo describes how one body was compiled: the kernel mode, the chosen
// order (atom renderings for static plans, variable names for wcoj plans)
// and whether store statistics informed it. The registry is keyed by the
// body's canonical string — the same key the attribution profile uses — so
// tooling can join profile rows to their plans.
type PlanInfo struct {
	Body     string   `json:"body"`
	Mode     string   `json:"mode"`
	Order    []string `json:"order,omitempty"`
	Prebound []string `json:"prebound,omitempty"`
	Stats    bool     `json:"stats"`
	Forced   bool     `json:"forced,omitempty"`
}

// OrderString renders the chosen order for tables: "a ▸ b ▸ c".
func (pi PlanInfo) OrderString() string {
	return strings.Join(pi.Order, " ▸ ")
}

var (
	planInfoMu     sync.Mutex
	planInfoByBody = map[string]PlanInfo{}
)

// recordPlanInfo notes how a body was compiled. A stats-informed compile
// replaces a structural one for the same body (KB validation compiles CDD
// bodies against a tiny anonymized store before any real scan; the profile
// should show the scan's order), otherwise the first writer wins — compile
// order at equal stats quality is deterministic, so so is the registry.
func recordPlanInfo(info PlanInfo) {
	planInfoMu.Lock()
	defer planInfoMu.Unlock()
	if old, ok := planInfoByBody[info.Body]; ok && (old.Stats || !info.Stats) {
		return
	}
	planInfoByBody[info.Body] = info
}

// PlanInfos returns every recorded plan annotation, sorted by body key.
func PlanInfos() []PlanInfo {
	planInfoMu.Lock()
	defer planInfoMu.Unlock()
	out := make([]PlanInfo, 0, len(planInfoByBody))
	for _, info := range planInfoByBody {
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Body < out[j].Body })
	return out
}

// PlanInfoFor returns the annotation recorded for a body key, if any.
func PlanInfoFor(body string) (PlanInfo, bool) {
	planInfoMu.Lock()
	defer planInfoMu.Unlock()
	info, ok := planInfoByBody[body]
	return info, ok
}
