// Package obs is the observability substrate of kbrepair: a lock-cheap
// metrics registry (counters, gauges, fixed-bucket latency histograms,
// optionally broken down by rule — see rules.go), a typed span/event
// tracer feeding one event ring and the -trace file, and pprof/expvar
// wiring helpers for the CLIs.
//
// The package is built for instrumentation of hot paths (the chase loop,
// the homomorphism search, conflict maintenance), so the design rules are:
//
//   - counters and histograms are always-on and allocation-free: plain
//     atomic adds on striped cells, no locks, no maps on the update path;
//   - anything that needs a clock (latency timers, spans) is gated behind
//     one atomic load (Enabled, or the tracer's outputs), so the default
//     no-flags path pays one predictable branch and zero allocations;
//   - instruments are registered once, at package init of the instrumented
//     package, and held as package-level handles — the hot path never
//     performs a name lookup.
//
// Everything is standard library only.
package obs

import (
	"sync/atomic"
	"time"
)

// enabled gates the time-based instruments (latency timers). Counter and
// histogram updates are cheap enough to stay always-on; calling time.Now
// twice per homomorphism search is not, so timers are opt-in.
var enabled atomic.Bool

// Enabled reports whether latency timing is on.
func Enabled() bool { return enabled.Load() }

// SetEnabled turns latency timing on or off (the CLIs enable it when any
// of -metrics / -trace is given).
func SetEnabled(v bool) { enabled.Store(v) }

// Timer is a started latency measurement. The zero Timer (returned by
// StartTimer when timing is disabled) is inert: observing it is a no-op.
type Timer struct{ t time.Time }

// StartTimer begins a latency measurement, or returns the inert zero Timer
// when timing is disabled. It is a value type; no allocation either way.
func StartTimer() Timer {
	if !enabled.Load() {
		return Timer{}
	}
	return Timer{t: time.Now()}
}

// Active reports whether the timer was started while timing was enabled.
func (t Timer) Active() bool { return !t.t.IsZero() }

// defaultRegistry is the process-wide registry used by the package-level
// constructors; the instrumented packages all register here.
var defaultRegistry = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return defaultRegistry }

// NewCounter registers (or retrieves) a counter on the default registry.
func NewCounter(name string) *Counter { return defaultRegistry.Counter(name) }

// NewGauge registers (or retrieves) a gauge on the default registry.
func NewGauge(name string) *Gauge { return defaultRegistry.Gauge(name) }

// NewHistogram registers (or retrieves) a histogram on the default
// registry. See Registry.Histogram for the bounds contract.
func NewHistogram(name string, bounds []float64) *Histogram {
	return defaultRegistry.Histogram(name, bounds)
}

// defaultTracer is the process-wide tracer; it starts with no outputs, so
// tracing is free until a CLI installs the ring or a -trace sink.
var defaultTracer = newTracer()

// DefaultTracer returns the process-wide tracer.
func DefaultTracer() *Tracer { return defaultTracer }

// Start opens a span of kind k on the default tracer, under the span id
// parent (0 for a root), with the leading payload slots. Call sites pass
// causality as a plain id across package boundaries.
func Start(k Kind, parent uint64, vals ...int) Span {
	return defaultTracer.start(k, parent, "", vals...)
}

// StartNote is Start with the span's note set from the start.
func StartNote(k Kind, parent uint64, note string, vals ...int) Span {
	return defaultTracer.start(k, parent, note, vals...)
}

// Point records a point event into the ring, if one is installed. Callers
// pass an already-materialized note (never format one for the call), so
// the disabled path stays one atomic load with no allocation.
func Point(k Kind, note string, vals ...int) { defaultTracer.point(k, note, vals) }

// Now reads the default tracer's clock — time.Now in production, the
// injected clock in deterministic-trace tests. Durations that land in span
// payloads (the engine's question delay) must be measured with it.
func Now() time.Time { return defaultTracer.Now() }

// SetTraceSink installs the -trace sink on the default tracer (nil removes
// it).
func SetTraceSink(s *JSONLSink) { defaultTracer.swap(func(o *outputs) { o.sink = s }) }
