package exp

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"

	"kbrepair/internal/obs"
	"kbrepair/internal/obs/traceview"
	"kbrepair/internal/stats"
)

// BenchSchemaVersion identifies the BENCH.json layout; bump on breaking
// changes so baseline comparisons can refuse incompatible files. Version 2
// added the plan-quality profile section and generalized the regression
// record beyond latency metrics. Version 3 annotates profile rows with the
// compiled join plan (kernel mode and compile-time order) and re-baselines
// the per-body node totals on the compile-time-ordered kernels — v2 node
// counts measured the adaptive engine's trees and are not comparable.
const BenchSchemaVersion = 3

// BenchEnv stamps the environment a benchmark ran in, so a baseline
// comparison can warn when the machines differ.
type BenchEnv struct {
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	NumCPU    int    `json:"num_cpu"`
	Hostname  string `json:"hostname,omitempty"`
}

// CurrentBenchEnv captures the running process's environment.
func CurrentBenchEnv() BenchEnv {
	host, _ := os.Hostname()
	return BenchEnv{
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		Hostname:  host,
	}
}

// BenchReport is the machine-readable benchmark baseline: what kbbench
// -json writes and -baseline compares against. Summaries holds one
// five-number summary per latency histogram, estimated from the buckets
// (stats.FromHistogram's accuracy contract applies).
type BenchReport struct {
	SchemaVersion int                      `json:"schema_version"`
	CreatedUnix   int64                    `json:"created_unix"`
	Label         string                   `json:"label,omitempty"`
	Env           BenchEnv                 `json:"env"`
	Metrics       obs.Snapshot             `json:"metrics"`
	Summaries     map[string]stats.Summary `json:"summaries"`
	// Profile is the plan-quality section (schema v2): per-body search
	// costs from the attribution families, nil when attribution was off.
	Profile *Profile `json:"profile,omitempty"`
	// Trace is the question-latency decomposition of the benchmarked runs,
	// built from the span stream (additive section: absent in older files
	// and when no spans were collected).
	Trace *TraceSummary `json:"trace,omitempty"`
}

// TraceComponent is one named slice of aggregate question latency: means
// and maxima are per question, Share is the component's fraction of all
// question time.
type TraceComponent struct {
	Name   string  `json:"name"`
	MeanUS int64   `json:"mean_us"`
	MaxUS  int64   `json:"max_us"`
	Share  float64 `json:"share"`
}

// TraceSummary aggregates the per-question waterfalls of a benchmark run:
// where question latency went, averaged over every question the span
// stream retained. Components are sorted by share descending (ties by
// name) and include the "(unattributed)" remainder, so shares sum to 1.
type TraceSummary struct {
	Questions     int              `json:"questions"`
	MeanTotalUS   int64            `json:"mean_total_us"`
	MaxTotalUS    int64            `json:"max_total_us"`
	Components    []TraceComponent `json:"components,omitempty"`
	SpansRetained int              `json:"spans_retained"`
	RecordsTotal  uint64           `json:"records_total"`
}

// unattributedComponent names the waterfall remainder in summaries.
const unattributedComponent = "(unattributed)"

// BuildTraceSummary digests a span record stream (typically a ring kbbench
// installed for the benchmarked runs) into the report's trace section. It
// returns nil when the stream holds no question spans.
func BuildTraceSummary(recs []obs.Record, total uint64) *TraceSummary {
	f := traceview.ParseRecords(recs)
	ws := f.Waterfalls()
	if len(ws) == 0 {
		return nil
	}
	s := &TraceSummary{
		Questions:     len(ws),
		SpansRetained: f.Spans(),
		RecordsTotal:  total,
	}
	type agg struct {
		sum, max int64
	}
	sums := make(map[string]*agg)
	var grand int64
	for _, w := range ws {
		s.MeanTotalUS += w.TotalUS
		if w.TotalUS > s.MaxTotalUS {
			s.MaxTotalUS = w.TotalUS
		}
		grand += w.TotalUS
		add := func(name string, dur int64) {
			a := sums[name]
			if a == nil {
				a = &agg{}
				sums[name] = a
			}
			a.sum += dur
			if dur > a.max {
				a.max = dur
			}
		}
		for _, c := range w.Components {
			add(c.Name, c.DurUS)
		}
		add(unattributedComponent, w.UnattributedUS)
	}
	s.MeanTotalUS /= int64(len(ws))
	for name, a := range sums {
		c := TraceComponent{Name: name, MeanUS: a.sum / int64(len(ws)), MaxUS: a.max}
		if grand > 0 {
			c.Share = float64(a.sum) / float64(grand)
		}
		s.Components = append(s.Components, c)
	}
	sort.Slice(s.Components, func(i, j int) bool {
		if s.Components[i].Share != s.Components[j].Share {
			return s.Components[i].Share > s.Components[j].Share
		}
		return s.Components[i].Name < s.Components[j].Name
	})
	return s
}

// NewBenchReport assembles a report from a metrics snapshot, stamping the
// current environment and time.
func NewBenchReport(label string, snap obs.Snapshot) BenchReport {
	r := BenchReport{
		SchemaVersion: BenchSchemaVersion,
		CreatedUnix:   time.Now().Unix(),
		Label:         label,
		Env:           CurrentBenchEnv(),
		Metrics:       snap,
		Summaries:     make(map[string]stats.Summary, len(snap.Histograms)),
	}
	for name, h := range snap.Histograms {
		r.Summaries[name] = h.Summary()
	}
	return r
}

// Write emits the report as indented JSON.
func (r BenchReport) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteBenchReportFile writes the report to path.
func WriteBenchReportFile(r BenchReport, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("bench report: %w", err)
	}
	if err := r.Write(f); err != nil {
		f.Close()
		return fmt.Errorf("bench report: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("bench report: %w", err)
	}
	return nil
}

// ReadBenchReportFile loads a report written by WriteBenchReportFile and
// validates its schema version and histogram shapes.
func ReadBenchReportFile(path string) (BenchReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return BenchReport{}, fmt.Errorf("bench baseline: %w", err)
	}
	var r BenchReport
	if err := json.Unmarshal(data, &r); err != nil {
		return BenchReport{}, fmt.Errorf("bench baseline %s: %w", path, err)
	}
	if r.SchemaVersion != BenchSchemaVersion {
		return BenchReport{}, fmt.Errorf("bench baseline %s: schema version %d, this binary reads %d",
			path, r.SchemaVersion, BenchSchemaVersion)
	}
	if err := r.Metrics.Validate(); err != nil {
		return BenchReport{}, fmt.Errorf("bench baseline %s: %w", path, err)
	}
	return r, nil
}

// benchNoiseFloorSeconds is the mean latency below which a histogram is
// ignored by the regression check: sub-microsecond means are dominated by
// timer granularity and scheduling noise, and a 2× swing there says
// nothing about the code.
const benchNoiseFloorSeconds = 1e-6

// treeNoiseFloorNodes is the per-body backtrack-node total below which the
// tree-size check is skipped: tiny bodies expand a handful of nodes, and a
// threshold-crossing swing there is one extra fact in a fixture, not a plan
// regression. Unlike latency, node counts are exact and deterministic, so
// the floor guards against triviality, not noise.
const treeNoiseFloorNodes = 1000

// Regression kinds: what quantity regressed.
const (
	// RegressionLatency is a latency-histogram mean regression (Old/New in
	// seconds).
	RegressionLatency = "latency"
	// RegressionTree is a per-body backtrack-node total regression (Old/New
	// in nodes) — the search tree grew, independent of machine speed.
	RegressionTree = "tree"
)

// Regression is one metric that got worse than the baseline allows. Kind
// says what Old/New measure: seconds for latency, nodes for tree.
type Regression struct {
	Metric string  `json:"metric"`
	Kind   string  `json:"kind"`
	Old    float64 `json:"old"`
	New    float64 `json:"new"`
	Ratio  float64 `json:"ratio"`
}

func (r Regression) String() string {
	if r.Kind == RegressionTree {
		return fmt.Sprintf("%s: backtrack nodes %.0f -> %.0f (%.2fx)", r.Metric, r.Old, r.New, r.Ratio)
	}
	return fmt.Sprintf("%s: mean %.3gs -> %.3gs (%.2fx)", r.Metric, r.Old, r.New, r.Ratio)
}

// CompareBenchReports checks every latency histogram present in both
// reports — a metric regresses when its new mean exceeds the old mean by
// more than the threshold factor (e.g. 1.25 allows 25% slack) — and, when
// both reports carry a profile, every body's backtrack-node total: node
// counts are deterministic, so a threshold-crossing growth is a genuine
// plan-quality regression even on a machine with different speed. Metrics
// with no observations on either side, or under the noise floors, are
// skipped. Results are sorted worst-first.
func CompareBenchReports(old, new BenchReport, threshold float64) []Regression {
	var out []Regression
	for name, oh := range old.Metrics.Histograms {
		nh, ok := new.Metrics.Histograms[name]
		if !ok || oh.Count == 0 || nh.Count == 0 {
			continue
		}
		oldMean := oh.Sum / float64(oh.Count)
		newMean := nh.Sum / float64(nh.Count)
		if oldMean < benchNoiseFloorSeconds && newMean < benchNoiseFloorSeconds {
			continue
		}
		if oldMean <= 0 {
			continue
		}
		ratio := newMean / oldMean
		if ratio > threshold {
			out = append(out, Regression{Metric: name, Kind: RegressionLatency, Old: oldMean, New: newMean, Ratio: ratio})
		}
	}
	if old.Profile != nil && new.Profile != nil {
		oldNodes := make(map[string]int64, len(old.Profile.Rows))
		for _, r := range old.Profile.Rows {
			oldNodes[r.Body] = r.Nodes
		}
		for _, nr := range new.Profile.Rows {
			on, ok := oldNodes[nr.Body]
			if !ok || on < treeNoiseFloorNodes {
				continue
			}
			ratio := float64(nr.Nodes) / float64(on)
			if ratio > threshold {
				out = append(out, Regression{
					Metric: "tree:" + nr.Body,
					Kind:   RegressionTree,
					Old:    float64(on),
					New:    float64(nr.Nodes),
					Ratio:  ratio,
				})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Ratio > out[j].Ratio })
	return out
}

// WriteBenchComparison renders a human-readable comparison section: the
// regressions (if any) and a one-line verdict.
func WriteBenchComparison(w io.Writer, old BenchReport, regs []Regression, threshold float64) {
	fmt.Fprintf(w, "== Baseline comparison (threshold %.2fx, baseline %s) ==\n",
		threshold, time.Unix(old.CreatedUnix, 0).UTC().Format(time.RFC3339))
	if env := CurrentBenchEnv(); env.GoVersion != old.Env.GoVersion || env.NumCPU != old.Env.NumCPU ||
		env.GOOS != old.Env.GOOS || env.GOARCH != old.Env.GOARCH {
		fmt.Fprintf(w, "  note: environment differs from baseline (%s %s/%s %d cpus vs %s %s/%s %d cpus)\n",
			env.GoVersion, env.GOOS, env.GOARCH, env.NumCPU,
			old.Env.GoVersion, old.Env.GOOS, old.Env.GOARCH, old.Env.NumCPU)
	}
	if len(regs) == 0 {
		fmt.Fprintln(w, "  no regressions")
		return
	}
	for _, r := range regs {
		fmt.Fprintf(w, "  REGRESSED %s\n", r)
	}
}
