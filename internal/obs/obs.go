// Package obs is the observability substrate of kbrepair: a lock-cheap
// metrics registry (counters, gauges, fixed-bucket latency histograms,
// optionally broken down by rule — see rules.go), a structured span/event
// tracer with pluggable sinks, and pprof/expvar wiring helpers for the
// CLIs.
//
// The package is built for instrumentation of hot paths (the chase loop,
// the homomorphism search, conflict maintenance), so the design rules are:
//
//   - counters and histograms are always-on and allocation-free: plain
//     atomic adds on striped cells, no locks, no maps on the update path;
//   - anything that needs a clock (latency timers, spans) is gated behind
//     Enabled / Tracing, so the default no-flags path pays one predictable
//     branch and zero allocations;
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

// defaultTracer is the process-wide tracer; its sink starts as the no-op
// sink, so tracing is free until a CLI installs a real sink.
var defaultTracer = NewTracer(nil)

// DefaultTracer returns the process-wide tracer.
func DefaultTracer() *Tracer { return defaultTracer }

// Tracing reports whether the default tracer has a real sink. Hot paths
// must guard span/event calls that pass attributes behind this check: the
// variadic attribute slice is materialized at the call site even when the
// tracer would discard it.
func Tracing() bool { return defaultTracer.Active() }

// StartSpan opens a root span on the default tracer.
func StartSpan(name string, attrs ...Attr) Span {
	return defaultTracer.StartSpan(name, attrs...)
}

// StartSpanUnder opens a span on the default tracer with an explicit parent
// span id (0 for a root) — for call sites that receive causality as a plain
// id across a package boundary rather than as a Span value.
func StartSpanUnder(parent uint64, name string, attrs ...Attr) Span {
	return defaultTracer.StartSpanUnder(parent, name, attrs...)
}

// Now reads the default tracer's clock — time.Now in production, the
// injected clock in deterministic-trace tests. Durations that become span
// attributes (the engine's question delay) must be measured with it.
func Now() time.Time { return defaultTracer.Now() }

// Emit records a point event on the default tracer.
func Emit(name string, attrs ...Attr) { defaultTracer.Event(name, attrs...) }

// SetTraceSink installs a sink on the default tracer (nil restores the
// no-op sink).
func SetTraceSink(s Sink) { defaultTracer.SetSink(s) }

// AddTraceSink tees s onto whatever sink the default tracer already has,
// or installs it alone if tracing was off — how kbbench collects a full
// span stream for its report without requiring -trace. Not safe against
// concurrent SetTraceSink calls; CLIs call both during single-threaded
// setup.
func AddTraceSink(s Sink) {
	if box := defaultTracer.sink.Load(); box != nil {
		defaultTracer.SetSink(MultiSink(box.s, s))
		return
	}
	defaultTracer.SetSink(s)
}
