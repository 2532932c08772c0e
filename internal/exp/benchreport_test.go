package exp

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"kbrepair/internal/obs"
)

// snapWithMean builds a snapshot holding one latency histogram whose mean
// is exactly mean seconds (n observations).
func snapWithMean(name string, n int64, mean float64) obs.Snapshot {
	return obs.Snapshot{
		Counters: map[string]int64{"work.items": n},
		Gauges:   map[string]int64{},
		Histograms: map[string]obs.HistogramSnapshot{
			name: {
				Count:  n,
				Sum:    mean * float64(n),
				Min:    mean / 2,
				Max:    mean * 2,
				Bounds: []float64{mean * 10},
				Counts: []int64{n, 0},
			},
		},
	}
}

func TestBenchReportRoundTrip(t *testing.T) {
	rep := NewBenchReport("test", snapWithMean("x.seconds", 10, 0.01))
	path := filepath.Join(t.TempDir(), "BENCH.json")
	if err := WriteBenchReportFile(rep, path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBenchReportFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.SchemaVersion != BenchSchemaVersion || got.Label != "test" {
		t.Errorf("round-trip header mismatch: %+v", got)
	}
	if got.Env.GoVersion == "" || got.Env.NumCPU < 1 {
		t.Errorf("environment stamp missing: %+v", got.Env)
	}
	if got.Metrics.Counters["work.items"] != 10 {
		t.Errorf("metrics snapshot lost: %+v", got.Metrics)
	}
	s, ok := got.Summaries["x.seconds"]
	if !ok {
		t.Fatalf("no summary for x.seconds: %+v", got.Summaries)
	}
	if s.N != 10 || s.Mean != 0.01 {
		t.Errorf("summary = %+v, want n=10 mean=0.01", s)
	}
}

func TestReadBenchReportFileRejectsBadSchema(t *testing.T) {
	path := filepath.Join(t.TempDir(), "old.json")
	rep := NewBenchReport("", snapWithMean("x.seconds", 1, 0.01))
	rep.SchemaVersion = BenchSchemaVersion + 1
	if err := WriteBenchReportFile(rep, path); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadBenchReportFile(path); err == nil {
		t.Fatal("future schema version accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadBenchReportFile(bad); err == nil {
		t.Fatal("malformed JSON accepted")
	}
	// A histogram with more bucket counts than bounds allow.
	rep = NewBenchReport("", snapWithMean("x.seconds", 1, 0.01))
	h := rep.Metrics.Histograms["x.seconds"]
	h.Counts = append(h.Counts, 0)
	rep.Metrics.Histograms["x.seconds"] = h
	if err := WriteBenchReportFile(rep, path); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadBenchReportFile(path); err == nil || !strings.Contains(err.Error(), "x.seconds") {
		t.Fatalf("malformed histogram: err = %v, want one naming x.seconds", err)
	}
}

func TestCompareBenchReportsFlagsRegression(t *testing.T) {
	old := NewBenchReport("", snapWithMean("chase.run_seconds", 100, 0.010))
	slow := NewBenchReport("", snapWithMean("chase.run_seconds", 100, 0.020))
	regs := CompareBenchReports(old, slow, 1.25)
	if len(regs) != 1 {
		t.Fatalf("regressions = %+v, want exactly one", regs)
	}
	if regs[0].Metric != "chase.run_seconds" || regs[0].Ratio < 1.9 || regs[0].Ratio > 2.1 {
		t.Errorf("regression = %+v, want ~2x on chase.run_seconds", regs[0])
	}
}

func TestCompareBenchReportsIdenticalPasses(t *testing.T) {
	rep := NewBenchReport("", snapWithMean("chase.run_seconds", 100, 0.010))
	if regs := CompareBenchReports(rep, rep, 1.25); len(regs) != 0 {
		t.Errorf("identical runs regressed: %+v", regs)
	}
}

func TestCompareBenchReportsSkipsNoiseFloor(t *testing.T) {
	// 2x swing on a 100ns-mean metric must be ignored.
	old := NewBenchReport("", snapWithMean("tiny.seconds", 100, 1e-7))
	slow := NewBenchReport("", snapWithMean("tiny.seconds", 100, 2e-7))
	if regs := CompareBenchReports(old, slow, 1.25); len(regs) != 0 {
		t.Errorf("noise-floor metric regressed: %+v", regs)
	}
	// Metrics absent from one side are skipped, not crashed on.
	other := NewBenchReport("", snapWithMean("other.seconds", 10, 0.5))
	if regs := CompareBenchReports(old, other, 1.25); len(regs) != 0 {
		t.Errorf("disjoint metric sets regressed: %+v", regs)
	}
}

func TestWriteBenchComparisonRendersVerdict(t *testing.T) {
	old := NewBenchReport("", snapWithMean("a.seconds", 10, 0.01))
	var buf bytes.Buffer
	WriteBenchComparison(&buf, old, nil, 1.25)
	if !strings.Contains(buf.String(), "no regressions") {
		t.Errorf("clean comparison missing verdict:\n%s", buf.String())
	}
	buf.Reset()
	WriteBenchComparison(&buf, old, []Regression{{Metric: "a.seconds", Old: 0.01, New: 0.02, Ratio: 2}}, 1.25)
	if !strings.Contains(buf.String(), "REGRESSED a.seconds") {
		t.Errorf("regression not rendered:\n%s", buf.String())
	}
}

// TestBenchReportJSONShape pins the top-level schema keys a CI consumer
// greps for.
func TestBenchReportJSONShape(t *testing.T) {
	var buf bytes.Buffer
	if err := NewBenchReport("l", snapWithMean("x.seconds", 1, 0.01)).Write(&buf); err != nil {
		t.Fatal(err)
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"schema_version", "created_unix", "env", "metrics", "summaries"} {
		if _, ok := m[key]; !ok {
			t.Errorf("report JSON missing %q:\n%s", key, buf.String())
		}
	}
}

// TestBuildTraceSummary checks the aggregate question decomposition: means
// over all questions, shares (including the unattributed remainder) summing
// to one, components sorted by share.
func TestBuildTraceSummary(t *testing.T) {
	ring := obs.EnableRing(64)
	t.Cleanup(obs.DisableRing)
	tr := obs.DefaultTracer()
	clock := time.UnixMicro(1_700_000_000_000_000).UTC()
	tr.SetNow(func() time.Time { clock = clock.Add(time.Millisecond); return clock })
	t.Cleanup(func() { tr.SetNow(nil) })
	root := obs.StartNote(obs.KindInquiryRun, 0, "random")
	for i := 1; i <= 3; i++ {
		q := root.Child(obs.KindQuestion, i, 1)
		q.Child(obs.KindSoundQuestion).End()
		q.End()
	}
	root.End()

	s := BuildTraceSummary(obs.SpanRecords(ring.Events()), ring.Total())
	if s == nil || s.Questions != 3 {
		t.Fatalf("summary = %+v, want 3 questions", s)
	}
	if s.RecordsTotal != ring.Total() || s.SpansRetained != 7 {
		t.Errorf("counts = %d/%d, want %d/7", s.RecordsTotal, s.SpansRetained, ring.Total())
	}
	if s.MeanTotalUS <= 0 || s.MaxTotalUS < s.MeanTotalUS {
		t.Errorf("totals = mean %d max %d", s.MeanTotalUS, s.MaxTotalUS)
	}
	var share float64
	seen := make(map[string]bool)
	for _, c := range s.Components {
		share += c.Share
		seen[c.Name] = true
	}
	if share < 0.999 || share > 1.001 {
		t.Errorf("shares sum to %f, want 1", share)
	}
	if !seen["inquiry.sound_question"] || !seen["(unattributed)"] {
		t.Errorf("components = %+v", s.Components)
	}
	for i := 1; i < len(s.Components); i++ {
		if s.Components[i].Share > s.Components[i-1].Share {
			t.Errorf("components not sorted by share: %+v", s.Components)
		}
	}
}

// TestBuildTraceSummaryEmpty: no question spans means no section at all.
func TestBuildTraceSummaryEmpty(t *testing.T) {
	if s := BuildTraceSummary(nil, 0); s != nil {
		t.Fatalf("summary over empty stream = %+v, want nil", s)
	}
}
