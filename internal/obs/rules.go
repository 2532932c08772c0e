package obs

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Per-rule attribution: a counter or histogram can break its total down by
// rule, so the pipeline can answer "which TGD/CDD/body is burning the time"
// from the same recording that feeds the global total.
//
//   - keys are interned once, on cold paths (plan compilation, first firing
//     of a rule), into dense int32 IDs; the hot path never touches a map or
//     a string;
//   - a rule metric holds one cell per key, published through an atomic
//     pointer to a copy-on-write slice, plus its own unattributed cells.
//     AddFor/ObserveFor record each event exactly once: in the rule's cell
//     when attribution is on and the ID is real, in the unattributed cell
//     otherwise. The registry total is the unattributed cell plus the sum
//     of the per-rule cells;
//   - interning is content-addressed (the canonical body/rule string), so
//     IDs attribute identically across reps, KB clones and worker counts,
//     and snapshots sort by key — byte-identical output regardless of the
//     order goroutines first touched a rule.

// ID is a dense handle for an interned attribution key. IDs are never
// reused within a process.
type ID int32

// None is the null ID: recording against it bills the unattributed cell.
// Call sites that resolve their ID only when attribution is enabled use
// None otherwise.
const None ID = -1

// attrEnabled gates per-rule recording. Attribution is opt-in because
// per-key cells cost memory proportional to the number of distinct rule
// bodies.
var attrEnabled atomic.Bool

// SetAttrEnabled turns per-rule attribution on or off.
func SetAttrEnabled(v bool) { attrEnabled.Store(v) }

// AttrEnabled reports whether per-rule attribution is on. Call sites check
// it before resolving an ID or recording a rule-only metric; AddFor and
// ObserveFor check it too, so an unguarded call is never wrong.
func AttrEnabled() bool { return attrEnabled.Load() }

var (
	// ruleMu guards interning and rule-metric registration; never held on
	// a recording path.
	ruleMu    sync.Mutex
	ruleIndex = map[string]ID{}
	ruleKeys  []string
	ruleCtrs  = map[string]*Counter{}
	ruleHists = map[string]*Histogram{}

	// ownerIDs caches owner (rule pointer) -> ID so hot call sites resolve
	// their ID without rebuilding the key string (see OwnerID/BindOwner).
	ownerIDs sync.Map
)

// Intern returns the ID for key, assigning the next dense one on first
// sight and growing every rule metric to cover it. It is safe for
// concurrent use but takes a lock — call it from cold paths (compilation,
// per-run setup) and cache the result.
func Intern(key string) ID {
	ruleMu.Lock()
	defer ruleMu.Unlock()
	if id, ok := ruleIndex[key]; ok {
		return id
	}
	id := ID(len(ruleKeys))
	ruleKeys = append(ruleKeys, key)
	ruleIndex[key] = id
	for _, c := range ruleCtrs {
		growCounterLocked(c)
	}
	for _, h := range ruleHists {
		growHistogramLocked(h)
	}
	return id
}

// OwnerID returns the cached ID bound to owner (a stable comparable
// identity, in practice a *logic.TGD or *logic.CDD pointer). The miss
// branch lets the caller build the key string only when actually needed:
//
//	if id, ok := obs.OwnerID(rule); !ok {
//	    id = obs.BindOwner(rule, rule.String())
//	}
func OwnerID(owner any) (ID, bool) {
	if v, ok := ownerIDs.Load(owner); ok {
		return v.(ID), true
	}
	return None, false
}

// BindOwner interns key and caches the resulting ID under owner. Binding
// the same owner twice keeps the first ID (keys are content-addressed, so
// a consistent caller gets the same ID either way).
func BindOwner(owner any, key string) ID {
	id := Intern(key)
	if v, loaded := ownerIDs.LoadOrStore(owner, id); loaded {
		return v.(ID)
	}
	return id
}

// NewRuleCounter registers (or retrieves) a counter on the default
// registry that also breaks its total down by rule.
func NewRuleCounter(name string) *Counter { return ruleCounter(name, true) }

// NewRuleOnlyCounter returns a counter that exists only for its per-rule
// breakdown: it appears in the rule snapshot but not in the registry.
func NewRuleOnlyCounter(name string) *Counter { return ruleCounter(name, false) }

func ruleCounter(name string, registered bool) *Counter {
	ruleMu.Lock()
	defer ruleMu.Unlock()
	if c, ok := ruleCtrs[name]; ok {
		return c
	}
	c := &Counter{name: name}
	if registered {
		c = defaultRegistry.Counter(name)
	}
	growCounterLocked(c)
	ruleCtrs[name] = c
	return c
}

// NewRuleHistogram registers (or retrieves) a histogram on the default
// registry that also breaks its samples down by rule (nil bounds mean
// LatencyBuckets).
func NewRuleHistogram(name string, bounds []float64) *Histogram {
	return ruleHistogram(name, bounds, true)
}

// NewRuleOnlyHistogram returns a histogram that exists only for its
// per-rule breakdown: it appears in the rule snapshot but not in the
// registry.
func NewRuleOnlyHistogram(name string, bounds []float64) *Histogram {
	return ruleHistogram(name, bounds, false)
}

func ruleHistogram(name string, bounds []float64, registered bool) *Histogram {
	ruleMu.Lock()
	defer ruleMu.Unlock()
	if h, ok := ruleHists[name]; ok {
		return h
	}
	var h *Histogram
	if registered {
		h = defaultRegistry.Histogram(name, bounds)
	} else {
		h = newHistogram(bounds)
		h.name = name
	}
	growHistogramLocked(h)
	ruleHists[name] = h
	return h
}

func growCounterLocked(c *Counter) {
	var cur []*Counter
	if p := c.rules.Load(); p != nil {
		if len(*p) >= len(ruleKeys) {
			return
		}
		cur = *p
	}
	nw := make([]*Counter, len(ruleKeys))
	copy(nw, cur)
	for i := len(cur); i < len(nw); i++ {
		nw[i] = new(Counter)
	}
	c.rules.Store(&nw)
}

func growHistogramLocked(h *Histogram) {
	var cur []*Histogram
	if p := h.rules.Load(); p != nil {
		if len(*p) >= len(ruleKeys) {
			return
		}
		cur = *p
	}
	nw := make([]*Histogram, len(ruleKeys))
	copy(nw, cur)
	for i := len(cur); i < len(nw); i++ {
		nw[i] = newHistogram(h.bounds)
	}
	h.rules.Store(&nw)
}

// SizeBuckets are the default histogram bounds for per-search tree and
// probe counts: powers of four from 1 to ~1M. The overflow bucket catches
// pathological searches.
var SizeBuckets = []float64{1, 4, 16, 64, 256, 1024, 4096, 16384, 65536, 262144, 1048576}

// RuleSnapshot is a point-in-time capture of every rule metric's per-rule
// cells, keys sorted lexicographically and every per-metric slice aligned
// with Keys. Sorting makes the snapshot independent of interning order,
// which varies with goroutine scheduling — a requirement for the
// byte-identical profile guarantee at any -workers count. Unattributed
// cells are not part of it: they live in the registry totals.
type RuleSnapshot struct {
	Keys       []string                       `json:"keys"`
	Counters   map[string][]int64             `json:"counters,omitempty"`
	Histograms map[string][]HistogramSnapshot `json:"histograms,omitempty"`
}

// Counter returns the value of metric name at key index i (0 when the
// metric is absent).
func (s *RuleSnapshot) Counter(name string, i int) int64 {
	vs := s.Counters[name]
	if i < 0 || i >= len(vs) {
		return 0
	}
	return vs[i]
}

// Histogram returns the snapshot of metric name at key index i (zero value
// when absent).
func (s *RuleSnapshot) Histogram(name string, i int) HistogramSnapshot {
	hs := s.Histograms[name]
	if i < 0 || i >= len(hs) {
		return HistogramSnapshot{}
	}
	return hs[i]
}

// Validate checks every per-rule histogram (see HistogramSnapshot.Validate).
func (s *RuleSnapshot) Validate() error {
	for name, hs := range s.Histograms {
		for i, h := range hs {
			if err := h.Validate(); err != nil {
				return fmt.Errorf("histogram %s[%d]: %w", name, i, err)
			}
		}
	}
	return nil
}

// CaptureRules returns a rule snapshot, or nil when attribution is
// disabled (the bundle section is omitted rather than empty).
func CaptureRules() *RuleSnapshot {
	if !attrEnabled.Load() {
		return nil
	}
	return SnapshotRules()
}

// SnapshotRules captures every rule metric regardless of the enabled gate
// — the /profilez handler uses it so a scrape of a disabled process still
// shows whatever was recorded before the gate closed.
func SnapshotRules() *RuleSnapshot {
	ruleMu.Lock()
	defer ruleMu.Unlock()
	perm := make([]int, len(ruleKeys))
	for i := range perm {
		perm[i] = i
	}
	sort.Slice(perm, func(a, b int) bool { return ruleKeys[perm[a]] < ruleKeys[perm[b]] })
	s := &RuleSnapshot{
		Keys:       make([]string, len(perm)),
		Counters:   make(map[string][]int64, len(ruleCtrs)),
		Histograms: make(map[string][]HistogramSnapshot, len(ruleHists)),
	}
	for i, src := range perm {
		s.Keys[i] = ruleKeys[src]
	}
	for name, c := range ruleCtrs {
		cells := *c.rules.Load()
		out := make([]int64, len(perm))
		for i, src := range perm {
			out[i] = cells[src].Value()
		}
		s.Counters[name] = out
	}
	for name, h := range ruleHists {
		cells := *h.rules.Load()
		out := make([]HistogramSnapshot, len(perm))
		for i, src := range perm {
			out[i] = cells[src].Snapshot()
		}
		s.Histograms[name] = out
	}
	return s
}

// ResetRules zeroes every rule metric, unattributed and per-rule cells
// alike (for tests and between benchmark runs); interned keys, IDs and
// owner bindings stay valid.
func ResetRules() {
	ruleMu.Lock()
	defer ruleMu.Unlock()
	for _, c := range ruleCtrs {
		c.Reset()
	}
	for _, h := range ruleHists {
		h.Reset()
	}
}
