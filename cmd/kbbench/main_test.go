package main

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"kbrepair/internal/exp"
	"kbrepair/internal/obs"
)

func TestScaleInt(t *testing.T) {
	if scaleInt(1000, 0.5) != 500 {
		t.Error("scale half")
	}
	if scaleInt(1000, 0.001) != 10 {
		t.Error("scale floor")
	}
}

func TestPickReps(t *testing.T) {
	if pickReps(5, 0) != 5 || pickReps(5, 2) != 2 {
		t.Error("pickReps")
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run(io.Discard, "nope", 1, 1, 1); err == nil {
		t.Error("unknown experiment accepted")
	}
}

// failWriter simulates an unwritable output stream (e.g. a closed pipe or a
// full disk); run must surface the experiment's work regardless, and main
// surfaces the flush error.
type failWriter struct{}

func (failWriter) Write(p []byte) (int, error) { return 0, errors.New("disk full") }

func TestRunSurvivesFailingWriter(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	// The experiment itself must not panic or deadlock when every write
	// fails; errors are reported by the buffered writer's Flush in main.
	if err := run(failWriter{}, "fig4a", 0.02, 1, 1); err != nil {
		t.Errorf("run with failing writer: %v", err)
	}
}

// reportWithMean builds a BenchReport whose single latency histogram has
// the given mean in seconds.
func reportWithMean(mean float64) exp.BenchReport {
	return exp.NewBenchReport("test", obs.Snapshot{
		Counters: map[string]int64{},
		Gauges:   map[string]int64{},
		Histograms: map[string]obs.HistogramSnapshot{
			"chase.run_seconds": {
				Count:  50,
				Sum:    mean * 50,
				Min:    mean / 2,
				Max:    mean * 2,
				Bounds: []float64{mean * 10},
				Counts: []int64{50, 0},
			},
		},
	})
}

// TestBenchBaselineFlagsRegression is the acceptance check: a synthetic 2x
// latency regression against the baseline must produce an error (main
// turns it into a non-zero exit), while an identical run passes.
func TestBenchBaselineFlagsRegression(t *testing.T) {
	dir := t.TempDir()
	baselinePath := filepath.Join(dir, "BENCH.json")
	var out strings.Builder
	// First run: write the baseline; no comparison requested.
	if err := benchBaseline(&out, reportWithMean(0.010), baselinePath, "", 1.25, false); err != nil {
		t.Fatalf("writing baseline: %v", err)
	}

	// Identical run compared against it: passes.
	out.Reset()
	if err := benchBaseline(&out, reportWithMean(0.010), "", baselinePath, 1.25, false); err != nil {
		t.Fatalf("identical run regressed: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "no regressions") {
		t.Errorf("comparison section missing verdict:\n%s", out.String())
	}

	// 2x slower: non-zero exit (error) naming the regressed metric.
	out.Reset()
	err := benchBaseline(&out, reportWithMean(0.020), "", baselinePath, 1.25, false)
	if err == nil {
		t.Fatalf("2x regression passed the gate:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "REGRESSED chase.run_seconds") {
		t.Errorf("regressed metric not listed:\n%s", out.String())
	}

	// Report-only mode: same regression, but exit zero.
	out.Reset()
	if err := benchBaseline(&out, reportWithMean(0.020), "", baselinePath, 1.25, true); err != nil {
		t.Fatalf("report-only mode still failed: %v", err)
	}
	if !strings.Contains(out.String(), "REGRESSED") {
		t.Errorf("report-only mode hid the regression:\n%s", out.String())
	}
}

// TestBenchBaselineMissingFile checks a bad baseline path is a clear error.
func TestBenchBaselineMissingFile(t *testing.T) {
	var out strings.Builder
	if err := benchBaseline(&out, reportWithMean(0.01), "", "/nonexistent/BENCH.json", 1.25, false); err == nil {
		t.Fatal("missing baseline accepted")
	}
}

// -cpuprofile writes a gzip-compressed pprof profile covering the run, and
// an unwritable path is an error before anything runs.
func TestCPUProfile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.out")
	stop, err := startCPUProfile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := run(io.Discard, "fig4a", 0.02, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(data, []byte{0x1f, 0x8b}) {
		t.Errorf("profile is not gzip-compressed pprof data (%d bytes)", len(data))
	}
	if _, err := startCPUProfile("/nonexistent/dir/cpu.out"); err == nil {
		t.Error("unwritable -cpuprofile path accepted")
	}
	stop, err = startCPUProfile("")
	if err != nil || stop() != nil {
		t.Errorf("empty path: err=%v", err)
	}
}

// TestRunTinyExperiments smoke-runs every experiment at minimal scale.
func TestRunTinyExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	for _, exp := range []string{"fig3", "fig4a", "fig4b", "fig5a", "fig5b", "fig5c", "usermodel"} {
		if err := run(io.Discard, exp, 0.02, 1, 1); err != nil {
			t.Errorf("%s: %v", exp, err)
		}
	}
}
