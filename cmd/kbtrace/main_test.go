package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"kbrepair/internal/inquiry"
	"kbrepair/internal/obs"
	"kbrepair/internal/synth"
)

const fixturePath = "testdata/fixture.trace"

// fixedClock steps 1ms per reading from a fixed epoch — the same injected
// clock the obs and inquiry determinism tests use, so the fixture trace is
// byte-identical every time it is regenerated.
func fixedClock() func() time.Time {
	t := time.UnixMicro(1_700_000_000_000_000).UTC()
	return func() time.Time {
		t = t.Add(time.Millisecond)
		return t
	}
}

// TestRegenerateFixture rewrites testdata/fixture.trace by running the real
// pipeline (fixed-seed synthetic KB, simulated user, injected clock) with a
// JSONL sink on the default tracer — the exact wiring kbrepair -trace uses.
// It only runs when asked:
//
//	KBTRACE_REGEN=1 go test ./cmd/kbtrace/
//	KBTRACE_UPDATE_GOLDEN=1 go test ./cmd/kbtrace/   # then refresh goldens
func TestRegenerateFixture(t *testing.T) {
	if os.Getenv("KBTRACE_REGEN") == "" {
		t.Skip("set KBTRACE_REGEN=1 to regenerate the fixture trace")
	}
	var buf bytes.Buffer
	sink := obs.NewJSONLSink(&buf)
	obs.SetTraceSink(sink)
	obs.DefaultTracer().SetNow(fixedClock())
	defer func() {
		obs.SetTraceSink(nil)
		obs.DefaultTracer().SetNow(nil)
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
	e := inquiry.New(g.KB, inquiry.OptiMCD{}, inquiry.NewSimulatedUser(17), 17, inquiry.Options{})
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Consistent {
		t.Fatal("fixture repair did not converge")
	}
	if err := sink.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if err := os.WriteFile(fixturePath, buf.Bytes(), 0o644); err != nil {
		t.Fatalf("write fixture: %v", err)
	}
	t.Logf("wrote %s (%d bytes, %d questions)", fixturePath, buf.Len(), res.Questions)
}

// goldenTest renders one view of the committed fixture trace and compares it
// byte-for-byte against testdata/<name>.golden (refresh with
// KBTRACE_UPDATE_GOLDEN=1).
func goldenTest(t *testing.T, name string, waterfall bool, top int, critical bool) {
	t.Helper()
	var buf bytes.Buffer
	if err := run(&buf, fixturePath, waterfall, top, critical, ""); err != nil {
		t.Fatalf("run: %v", err)
	}
	golden := filepath.Join("testdata", name+".golden")
	if os.Getenv("KBTRACE_UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatalf("update golden: %v", err)
		}
		t.Logf("wrote %s (%d bytes)", golden, buf.Len())
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("%s output does not match golden file.\n--- got ---\n%s\n--- want ---\n%s", name, buf.Bytes(), want)
	}
}

func TestWaterfallGolden(t *testing.T)    { goldenTest(t, "waterfall", true, 0, false) }
func TestCriticalPathGolden(t *testing.T) { goldenTest(t, "critical-path", false, 0, true) }
func TestSummaryGolden(t *testing.T)      { goldenTest(t, "summary", false, 0, false) }

// TestWaterfallTop checks the -top selection: fewer blocks, slowest first.
func TestWaterfallTop(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, fixturePath, true, 1, false, ""); err != nil {
		t.Fatalf("run: %v", err)
	}
	out := buf.String()
	if got := strings.Count(out, "(phase "); got != 1 {
		t.Errorf("blocks = %d, want 1:\n%s", got, out)
	}
	if !strings.Contains(out, "1 questions") {
		t.Errorf("missing question count:\n%s", out)
	}
}

// TestChromeExportFixture runs the -chrome path end to end; exportChrome
// re-reads and validates its own output, so success means a loadable file.
func TestChromeExportFixture(t *testing.T) {
	out := filepath.Join(t.TempDir(), "trace.json")
	var buf bytes.Buffer
	if err := run(&buf, fixturePath, false, 0, false, out); err != nil {
		t.Fatalf("run: %v", err)
	}
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatalf("read export: %v", err)
	}
	if !bytes.Contains(b, []byte(`"traceEvents"`)) || !bytes.Contains(b, []byte(`"inquiry.run"`)) {
		t.Errorf("export missing expected content (%d bytes)", len(b))
	}
}

// TestEmptyTraceErrors pins the non-zero exit make trace-smoke relies on.
func TestEmptyTraceErrors(t *testing.T) {
	empty := filepath.Join(t.TempDir(), "empty.trace")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := run(&buf, empty, false, 0, false, ""); err == nil || !strings.Contains(err.Error(), "empty trace") {
		t.Errorf("err = %v, want empty-trace error", err)
	}
}

// TestNoQuestionsWaterfallErrors: a trace without question spans has no
// waterfalls; -waterfall must fail rather than print nothing.
func TestNoQuestionsWaterfallErrors(t *testing.T) {
	p := filepath.Join(t.TempDir(), "bare.trace")
	line := `{"type":"span","name":"chase.run","span":1,"start_us":1000,"dur_us":500}` + "\n"
	if err := os.WriteFile(p, []byte(line), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := run(&buf, p, true, 0, false, ""); err == nil || !strings.Contains(err.Error(), "no inquiry.question spans") {
		t.Errorf("err = %v, want no-question-spans error", err)
	}
}
