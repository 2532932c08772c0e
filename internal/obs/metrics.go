package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"kbrepair/internal/stats"
)

// stripes is the number of independent cells a counter spreads its updates
// over. Eight cells comfortably cover the core counts this code will meet;
// the per-counter cost is a few cache lines.
const stripes = 8

// cell is a cache-line-padded atomic so that concurrent writers on
// different stripes never false-share.
type cell struct {
	v atomic.Int64
	_ [56]byte
}

// stripeHint picks a stripe for the calling goroutine. Goroutine stacks are
// disjoint, so the address of a local variable is a cheap per-goroutine
// value; shifting drops alignment bits. This needs no runtime support, no
// locks and no allocation — the compiler keeps the local on the stack
// because the pointer is converted to uintptr in the same expression.
func stripeHint() uint {
	var b byte
	return uint(uintptr(unsafe.Pointer(&b))>>6) % stripes
}

// Counter is a monotone event count. Updates are striped atomic adds:
// single-writer cost is one uncontended atomic, and parallel writers (the
// future parallel chase) spread over stripes instead of bouncing one cache
// line.
//
// A counter made by NewRuleCounter also carries a per-rule breakdown (see
// rules.go): AddFor bills an event to one rule's cell, or to the counter's
// own unattributed cells, and Value is the sum of both.
type Counter struct {
	name  string
	cells [stripes]cell
	rules atomic.Pointer[[]*Counter] // per-rule cells, indexed by ID
}

// Add increments the counter by n, unattributed.
func (c *Counter) Add(n int64) { c.cells[stripeHint()].v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// AddFor increments the counter by n on behalf of rule id. With
// attribution off, or id None, the event lands in the unattributed cells:
// one compare and the same striped add as Add.
func (c *Counter) AddFor(id ID, n int64) { c.forRule(id).Add(n) }

// forRule returns the cell an event for id lands in.
func (c *Counter) forRule(id ID) *Counter {
	if id >= 0 && attrEnabled.Load() {
		if rs := c.rules.Load(); rs != nil && int(id) < len(*rs) {
			return (*rs)[id]
		}
	}
	return c
}

// Value returns the current total: the unattributed cells plus every
// per-rule cell.
func (c *Counter) Value() int64 {
	t := c.Unattributed()
	if rs := c.rules.Load(); rs != nil {
		for _, r := range *rs {
			t += r.Unattributed()
		}
	}
	return t
}

// Unattributed returns the part of the total not billed to any rule.
func (c *Counter) Unattributed() int64 {
	var t int64
	for i := range c.cells {
		t += c.cells[i].v.Load()
	}
	return t
}

// Name returns the registered name.
func (c *Counter) Name() string { return c.name }

// Reset zeroes the counter, per-rule cells included.
func (c *Counter) Reset() {
	for i := range c.cells {
		c.cells[i].v.Store(0)
	}
	if rs := c.rules.Load(); rs != nil {
		for _, r := range *rs {
			r.Reset()
		}
	}
}

// Gauge is a last-value instrument (a level, not a count).
type Gauge struct {
	name string
	v    atomic.Int64
}

// Set records the current level.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the level by n.
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Name returns the registered name.
func (g *Gauge) Name() string { return g.name }

// LatencyBuckets are the default histogram bounds for operation latencies,
// in seconds: decade steps from 100ns to 10s. The overflow bucket catches
// anything slower.
var LatencyBuckets = []float64{
	1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1, 10,
}

// Histogram is a fixed-bucket histogram with atomic cells. Bounds are
// upper bucket edges; an observation lands in the first bucket whose bound
// is >= the value, or in the overflow bucket past the last bound. Exact
// sum, min and max are tracked so snapshots reconcile with
// stats.Summarize on the raw samples (see stats.FromHistogram).
//
// Like Counter, a histogram made by NewRuleHistogram carries a per-rule
// breakdown: ObserveFor bills a sample to one rule's cell, and Snapshot
// merges the unattributed cell with every per-rule cell.
type Histogram struct {
	name   string
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last is overflow
	count  atomic.Int64
	sum    atomicFloat
	min    atomicFloat
	max    atomicFloat
	rules  atomic.Pointer[[]*Histogram] // per-rule cells, indexed by ID
}

// atomicFloat is a float64 updated by CAS on its bit pattern.
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) store(v float64) { f.bits.Store(math.Float64bits(v)) }
func (f *atomicFloat) load() float64   { return math.Float64frombits(f.bits.Load()) }

func (f *atomicFloat) add(v float64) {
	for {
		old := f.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

func (f *atomicFloat) min(v float64) {
	for {
		old := f.bits.Load()
		if math.Float64frombits(old) <= v {
			return
		}
		if f.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

func (f *atomicFloat) max(v float64) {
	for {
		old := f.bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if f.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.add(v)
	h.min.min(v)
	h.max.max(v)
}

// Since observes the elapsed time of a Timer in seconds; inert timers (from
// a disabled StartTimer) are ignored.
func (h *Histogram) Since(t Timer) {
	if t.t.IsZero() {
		return
	}
	h.Observe(time.Since(t.t).Seconds())
}

// ObserveDuration records a duration sample in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// ObserveFor records one sample on behalf of rule id; with attribution off,
// or id None, it is Observe.
func (h *Histogram) ObserveFor(id ID, v float64) { h.forRule(id).Observe(v) }

// SinceFor is Since on behalf of rule id.
func (h *Histogram) SinceFor(id ID, t Timer) { h.forRule(id).Since(t) }

// forRule returns the cell a sample for id lands in.
func (h *Histogram) forRule(id ID) *Histogram {
	if id >= 0 && attrEnabled.Load() {
		if rs := h.rules.Load(); rs != nil && int(id) < len(*rs) {
			return (*rs)[id]
		}
	}
	return h
}

// Count returns the number of observations, per-rule cells included.
func (h *Histogram) Count() int64 {
	n := h.count.Load()
	if rs := h.rules.Load(); rs != nil {
		for _, r := range *rs {
			n += r.count.Load()
		}
	}
	return n
}

// Name returns the registered name.
func (h *Histogram) Name() string { return h.name }

// Reset zeroes the histogram, per-rule cells included; handles stay valid.
func (h *Histogram) Reset() {
	for i := range h.counts {
		h.counts[i].Store(0)
	}
	h.count.Store(0)
	h.sum.store(0)
	h.min.store(math.Inf(1))
	h.max.store(math.Inf(-1))
	if rs := h.rules.Load(); rs != nil {
		for _, r := range *rs {
			r.Reset()
		}
	}
}

// Snapshot captures a consistent-enough view (individual fields are atomic;
// cross-field skew of in-flight observations is acceptable for reporting).
// Count is the sum of the bucket counts read, so the exposition's +Inf
// bucket always equals its _count, however long the reader is preempted
// while writers keep observing. Per-rule cells merge in: buckets, count
// and sum add up, min and max combine.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := h.Unattributed()
	if rs := h.rules.Load(); rs != nil {
		for _, r := range *rs {
			s.merge(r.Unattributed())
		}
	}
	return s
}

// Unattributed captures the samples not billed to any rule.
func (h *Histogram) Unattributed() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]int64, len(h.counts)),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
		s.Count += s.Counts[i]
	}
	if s.Count > 0 {
		s.Sum = h.sum.load()
		s.Min = h.min.load()
		s.Max = h.max.load()
	}
	return s
}

// HistogramSnapshot is the serializable state of a histogram.
type HistogramSnapshot struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	// Bounds are the upper bucket edges; Counts has one extra overflow
	// entry for observations beyond the last bound.
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
}

// merge adds o's samples into s; both share one set of bounds.
func (s *HistogramSnapshot) merge(o HistogramSnapshot) {
	if o.Count == 0 {
		return
	}
	if s.Count == 0 {
		s.Min, s.Max = o.Min, o.Max
	} else {
		s.Min = math.Min(s.Min, o.Min)
		s.Max = math.Max(s.Max, o.Max)
	}
	for i, c := range o.Counts {
		s.Counts[i] += c
	}
	s.Count += o.Count
	s.Sum += o.Sum
}

// Validate checks the shape every reader of a snapshot relies on: one
// count per bucket plus the overflow bucket, strictly increasing bounds
// and no negative count. Snapshots loaded from files must pass it before
// anything computes quantiles from them.
func (s HistogramSnapshot) Validate() error {
	if len(s.Counts) != len(s.Bounds)+1 {
		return fmt.Errorf("%d bucket counts for %d bounds, want %d", len(s.Counts), len(s.Bounds), len(s.Bounds)+1)
	}
	for i := 1; i < len(s.Bounds); i++ {
		if !(s.Bounds[i] > s.Bounds[i-1]) {
			return fmt.Errorf("bounds not strictly increasing at %d", i)
		}
	}
	for i, c := range s.Counts {
		if c < 0 {
			return fmt.Errorf("negative count %d in bucket %d", c, i)
		}
	}
	return nil
}

// Validate checks every histogram of the snapshot (see
// HistogramSnapshot.Validate).
func (s Snapshot) Validate() error {
	for name, h := range s.Histograms {
		if err := h.Validate(); err != nil {
			return fmt.Errorf("histogram %s: %w", name, err)
		}
	}
	return nil
}

// Summary bridges the histogram to the paper's boxplot statistics: an
// approximate stats.Summary whose quantiles are interpolated from the
// buckets (see stats.FromHistogram for the accuracy contract).
func (s HistogramSnapshot) Summary() stats.Summary {
	return stats.FromHistogram(s.Bounds, s.Counts, s.Sum, s.Min, s.Max)
}

// Snapshot is a point-in-time capture of a registry, JSON-serializable as
// the -metrics output format.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Registry is a named set of instruments. Registration takes a lock;
// instrument updates never do — callers hold on to the returned handles.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Counter registers a counter under name, or returns the existing one.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	c := &Counter{name: name}
	r.counters[name] = c
	return c
}

// Gauge registers a gauge under name, or returns the existing one.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	g := &Gauge{name: name}
	r.gauges[name] = g
	return g
}

// newHistogram returns a histogram attached to no registry (nil bounds
// mean LatencyBuckets) — a registry entry, a per-rule cell, or a
// rule-only family.
func newHistogram(bounds []float64) *Histogram {
	if bounds == nil {
		bounds = LatencyBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram bounds not increasing at %d", i))
		}
	}
	h := &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}
	h.min.store(math.Inf(1))
	h.max.store(math.Inf(-1))
	return h
}

// Histogram registers a histogram under name with the given upper bucket
// bounds (must be strictly increasing; nil means LatencyBuckets), or
// returns the existing one (bounds of a re-registration are ignored).
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.histograms[name]; ok {
		return h
	}
	h := newHistogram(bounds)
	h.name = name
	r.histograms[name] = h
	return h
}

// Snapshot captures the current values of every instrument.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]int64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.histograms)),
	}
	for n, c := range r.counters {
		s.Counters[n] = c.Value()
	}
	for n, g := range r.gauges {
		s.Gauges[n] = g.Value()
	}
	for n, h := range r.histograms {
		s.Histograms[n] = h.Snapshot()
	}
	return s
}

// Reset zeroes every instrument (for tests and between benchmark runs);
// handles stay valid.
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.counters {
		c.Reset()
	}
	for _, g := range r.gauges {
		g.Set(0)
	}
	for _, h := range r.histograms {
		h.Reset()
	}
}

// Names returns all registered instrument names, sorted.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.counters)+len(r.gauges)+len(r.histograms))
	for n := range r.counters {
		out = append(out, n)
	}
	for n := range r.gauges {
		out = append(out, n)
	}
	for n := range r.histograms {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// WriteJSON writes the snapshot as indented JSON (the -metrics file
// format). Map keys are emitted sorted, so output is deterministic for a
// given state.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}
