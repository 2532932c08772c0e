package inquiry

import (
	"bytes"
	"testing"
	"time"

	"kbrepair/internal/obs"
	"kbrepair/internal/par"
	"kbrepair/internal/synth"
)

// traceClock steps 1ms per reading from a fixed epoch, making every span
// timestamp (and the engine's delay_us attribute, which reads the same
// clock) a pure function of the execution's read sequence.
func traceClock() func() time.Time {
	t := time.UnixMicro(1_700_000_000_000_000).UTC()
	return func() time.Time {
		t = t.Add(time.Millisecond)
		return t
	}
}

// traceBytes repairs the fixed-seed workload at the given worker count with
// a JSONL sink and injected clock on the default tracer, returning the raw
// trace.
func traceBytes(t *testing.T, workers int) []byte {
	t.Helper()
	par.SetWorkers(workers)
	var buf bytes.Buffer
	sink := obs.NewJSONLSink(&buf)
	tr := obs.DefaultTracer()
	tr.ResetSeq()
	tr.SetNow(traceClock())
	obs.SetTraceSink(sink)
	defer func() {
		obs.SetTraceSink(nil)
		tr.SetNow(nil)
	}()

	g, err := synth.Generate(synth.Params{
		Seed:               9,
		NumFacts:           120,
		InconsistencyRatio: 0.25,
		NumCDDs:            8,
		NumTGDs:            4,
		JoinVarRatio:       0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	e := New(g.KB, OptiMCD{}, NewSimulatedUser(17), 17, Options{})
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Consistent {
		t.Fatal("repair did not converge")
	}
	if err := sink.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	return buf.Bytes()
}

// TestTraceDeterministicAcrossWorkers is the tracing counterpart of
// TestRepairDeterministicAcrossWorkers: with an injected clock, the JSONL
// trace of a fixed-seed repair must be byte-identical at -workers 1, 2 and
// 8. All spans are emitted from the engine goroutine (parallel Π-check
// chases run TraceQuiet and are attributed at batch level), so any
// divergence means a worker leaked a record or the emission order shifted.
func TestTraceDeterministicAcrossWorkers(t *testing.T) {
	t.Cleanup(func() { par.SetWorkers(0) })
	base := traceBytes(t, 1)
	if !bytes.Contains(base, []byte(`"inquiry.question"`)) {
		t.Fatal("trace has no question spans; test would be vacuous")
	}
	for _, w := range []int{2, 8} {
		got := traceBytes(t, w)
		if bytes.Equal(got, base) {
			continue
		}
		i := 0
		for i < len(got) && i < len(base) && got[i] == base[i] {
			i++
		}
		lo := i - 120
		if lo < 0 {
			lo = 0
		}
		clip := func(b []byte) []byte {
			if hi := i + 120; hi < len(b) {
				return b[lo:hi]
			}
			return b[lo:]
		}
		t.Fatalf("workers=%d trace diverges from workers=1 at byte %d:\n--- workers=1\n…%s…\n--- workers=%d\n…%s…",
			w, i, clip(base), w, clip(got))
	}
}
