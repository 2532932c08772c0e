package obs

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// DefaultSampleEvery is the default time-series sampling interval.
const DefaultSampleEvery = 250 * time.Millisecond

// MaxFlightEvents is the largest event-ring capacity ValidateFlags accepts
// for -flight-events: 16Mi events is ~1.8GB of ring buffer, far
// past any plausible retention need — a bigger value is a typo.
const MaxFlightEvents = 1 << 24

// CLIConfig is the observability surface the CLIs expose as flags.
type CLIConfig struct {
	// MetricsPath, when non-empty, enables latency timing and writes a
	// JSON snapshot of the default registry there at Flush time.
	MetricsPath string
	// TracePath, when non-empty, enables timing and streams a JSON-lines
	// trace of the default tracer there.
	TracePath string
	// PprofAddr, when non-empty, serves the debug handlers (pprof, expvar,
	// /metrics, /statusz) on the address.
	PprofAddr string
	// TimeseriesPath, when non-empty, enables timing and streams periodic
	// registry samples there as JSONL (see Sampler).
	TimeseriesPath string
	// SampleEvery is the periodic sampling interval for TimeseriesPath;
	// <= 0 disables the ticker, leaving only forced marks.
	SampleEvery time.Duration
	// MutexFraction, when > 0, is passed to runtime.SetMutexProfileFraction
	// so the mutex profile (pprof and debug bundles) samples contended
	// lock acquisitions: 1 records every contention event, N one in N.
	MutexFraction int
	// BlockRate, when > 0, is passed to runtime.SetBlockProfileRate: one
	// blocking event per BlockRate nanoseconds blocked is sampled into the
	// block profile.
	BlockRate int
}

// AddFlags registers the shared observability flags on fs and returns the
// CLIConfig they populate — the one wiring all four CLIs use, so flag
// names and help strings stay identical across binaries. Pass the result
// to SetupCLI after fs is parsed.
func AddFlags(fs *flag.FlagSet) *CLIConfig {
	c := &CLIConfig{SampleEvery: DefaultSampleEvery}
	fs.StringVar(&c.MetricsPath, "metrics", "", "write a JSON metrics snapshot to this file on exit")
	fs.StringVar(&c.TracePath, "trace", "", "stream a JSON-lines execution trace to this file")
	fs.StringVar(&c.PprofAddr, "pprof", "", "serve pprof/expvar/metrics debug handlers on this address (e.g. localhost:6060)")
	fs.StringVar(&c.TimeseriesPath, "timeseries", "", "stream periodic JSON-lines metric samples to this file")
	fs.DurationVar(&c.SampleEvery, "sample-interval", c.SampleEvery, "sampling interval for -timeseries")
	fs.IntVar(&c.MutexFraction, "mutex-profile-fraction", 0,
		"sample 1/N of mutex contention events into the mutex profile (0 disables; see runtime.SetMutexProfileFraction)")
	fs.IntVar(&c.BlockRate, "block-profile-rate", 0,
		"sample one blocking event per N nanoseconds blocked into the block profile (0 disables; see runtime.SetBlockProfileRate)")
	return c
}

// ValidateFlags checks flag values that parse fine but make no sense, after
// fs has been parsed. It rejects an explicitly passed non-positive
// -sample-interval (the zero default means "ticker off" internally, but a
// user typing -sample-interval 0 almost certainly wanted sampling), an
// explicitly passed negative -mutex-profile-fraction or
// -block-profile-rate (0 is a valid "off"), an
// explicitly passed -flight-events of 0 (the default 0 means "autosize
// from the KB"; a user typing it either wanted the autosize — omit the
// flag — or to disable the recorder, which is any negative value) or above
// MaxFlightEvents, and an explicitly passed non-positive value for each
// flag named in positiveInts (e.g. "workers", whose default 0 means
// GOMAXPROCS — valid as a default, nonsense as input). Only flags the user
// actually set are checked, via fs.Visit. Returns the first offending flag
// as an error; the CLIs print it and exit 2, the flag package's own
// usage-error status.
func ValidateFlags(fs *flag.FlagSet, positiveInts ...string) error {
	positive := make(map[string]bool, len(positiveInts))
	for _, name := range positiveInts {
		positive[name] = true
	}
	var first error
	fs.Visit(func(f *flag.Flag) {
		if first != nil {
			return
		}
		switch {
		case f.Name == "sample-interval":
			if g, ok := f.Value.(flag.Getter); ok {
				if d, ok := g.Get().(time.Duration); ok && d <= 0 {
					first = fmt.Errorf("-sample-interval must be positive, got %v", d)
				}
			}
		case f.Name == "mutex-profile-fraction" || f.Name == "block-profile-rate":
			if g, ok := f.Value.(flag.Getter); ok {
				if n, ok := g.Get().(int); ok && n < 0 {
					first = fmt.Errorf("-%s must be non-negative, got %d", f.Name, n)
				}
			}
		case f.Name == "flight-events":
			if g, ok := f.Value.(flag.Getter); ok {
				if n, ok := g.Get().(int); ok {
					switch {
					case n == 0:
						first = fmt.Errorf("-flight-events 0 is ambiguous: omit the flag to autosize from the KB, or pass a negative value to disable the recorder")
					case n > MaxFlightEvents:
						first = fmt.Errorf("-flight-events must be at most %d, got %d", MaxFlightEvents, n)
					}
				}
			}
		case positive[f.Name]:
			if g, ok := f.Value.(flag.Getter); ok {
				if n, ok := g.Get().(int); ok && n <= 0 {
					first = fmt.Errorf("-%s must be positive, got %d", f.Name, n)
				}
			}
		}
	})
	return first
}

// Enabled reports whether any observability output was requested.
func (c CLIConfig) Enabled() bool {
	return c.MetricsPath != "" || c.TracePath != "" || c.PprofAddr != "" || c.TimeseriesPath != ""
}

// SetupCLI wires the requested observability outputs and returns a flush
// function to be called once on exit. Output files are created eagerly so
// an unwritable path fails before any work is done, with a clear error and
// a non-zero exit in the CLIs. The flush writes the metrics snapshot,
// stops the runtime poller and the sampler, tears down the trace sink, and
// reports any write error encountered.
func SetupCLI(c CLIConfig) (flush func() error, err error) {
	var (
		metricsFile *os.File
		traceFile   *os.File
		traceSink   *JSONLSink
		seriesFile  *os.File
		sampler     *Sampler
		poller      *RuntimePoller
	)
	fail := func(err error) (func() error, error) {
		if metricsFile != nil {
			metricsFile.Close()
		}
		if traceFile != nil {
			traceFile.Close()
		}
		if seriesFile != nil {
			seriesFile.Close()
		}
		return nil, err
	}

	if c.MetricsPath != "" {
		metricsFile, err = os.Create(c.MetricsPath)
		if err != nil {
			return fail(fmt.Errorf("metrics output: %w", err))
		}
	}
	if c.TracePath != "" {
		traceFile, err = os.Create(c.TracePath)
		if err != nil {
			return fail(fmt.Errorf("trace output: %w", err))
		}
		traceSink = NewJSONLSink(traceFile)
		SetTraceSink(traceSink)
	}
	if c.TimeseriesPath != "" {
		seriesFile, err = os.Create(c.TimeseriesPath)
		if err != nil {
			return fail(fmt.Errorf("timeseries output: %w", err))
		}
		sampler = StartSampler(Default(), seriesFile, c.SampleEvery)
		SetSampler(sampler)
	}
	if c.PprofAddr != "" {
		if _, err := ServeDebug(c.PprofAddr); err != nil {
			return fail(fmt.Errorf("pprof server: %w", err))
		}
	}
	// Contention capture is opt-in: sampling contended locks costs a
	// little on every contended acquisition, so the rates stay 0 unless
	// the user asks. The profiles land in pprof and debug bundles.
	if c.MutexFraction > 0 {
		runtime.SetMutexProfileFraction(c.MutexFraction)
	}
	if c.BlockRate > 0 {
		runtime.SetBlockProfileRate(c.BlockRate)
	}
	if c.MetricsPath != "" || c.TracePath != "" || c.TimeseriesPath != "" {
		SetEnabled(true)
	}
	// Any live output gets fresh runtime.* gauges: the poller feeds the
	// time series, /metrics and debug bundles.
	if c.Enabled() {
		poller = StartRuntimePoller(c.SampleEvery)
	}

	return func() error {
		var first error
		keep := func(err error) {
			if err != nil && first == nil {
				first = err
			}
		}
		poller.Stop()
		if sampler != nil {
			SetSampler(nil)
			keep(sampler.Stop())
			if err := seriesFile.Close(); err != nil {
				keep(fmt.Errorf("timeseries output: %w", err))
			}
		}
		if traceSink != nil {
			SetTraceSink(nil)
			if err := traceSink.Flush(); err != nil {
				keep(fmt.Errorf("trace output: %w", err))
			}
			if err := traceFile.Close(); err != nil {
				keep(fmt.Errorf("trace output: %w", err))
			}
		}
		if metricsFile != nil {
			if err := Default().WriteJSON(metricsFile); err != nil {
				keep(fmt.Errorf("metrics output: %w", err))
			}
			if err := metricsFile.Close(); err != nil {
				keep(fmt.Errorf("metrics output: %w", err))
			}
		}
		return first
	}, nil
}
