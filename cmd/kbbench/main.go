// Command kbbench regenerates every table and figure of the paper's
// experimental study (§6), printing the same rows/series the paper
// reports. By default it runs at the paper's scale; -scale shrinks every
// workload proportionally for quick smoke runs.
//
// Usage:
//
//	kbbench -exp all                 # every experiment, paper scale
//	kbbench -exp fig2                # Figure 2 (a)-(d), Durum Wheat v1+v2
//	kbbench -exp fig5c -scale 0.25   # quarter-scale Figure 5(c)
//	kbbench -exp fig3 -metrics m.json -trace t.jsonl   # with observability
//	kbbench -exp fig3 -scale 0.1 -json BENCH.json      # machine-readable baseline
//	kbbench -exp fig3 -scale 0.1 -baseline BENCH.json  # regression gate
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"

	"kbrepair/internal/durum"
	"kbrepair/internal/exp"
	"kbrepair/internal/obs"
	"kbrepair/internal/obs/flight"
	"kbrepair/internal/par"
)

// benchRingCapacity is the event-ring size of a -json/-baseline run: room
// for the spans, begin marks and homomorphism-search events of the
// benchmarked sessions, so the report's trace section sees every question.
const benchRingCapacity = 1 << 17

func main() {
	defer flight.HandlePanic()
	var (
		which     = flag.String("exp", "all", "experiment: fig2 | fig3 | fig4a | fig4b | fig5a | fig5b | fig5c | usermodel | ablation | all")
		scale     = flag.Float64("scale", 1.0, "workload scale factor (sizes multiplied by this)")
		reps      = flag.Int("reps", 0, "override repetition count (0 = paper value)")
		seed      = flag.Int64("seed", 1, "base random seed")
		benchJSON = flag.String("json", "", "write a machine-readable benchmark report (BENCH.json) to this file")
		baseline  = flag.String("baseline", "", "compare this run against a prior -json report; exit non-zero on regression")
		threshold = flag.Float64("threshold", 1.25, "regression threshold for -baseline: fail when new mean > old mean x this")
		regressOK = flag.Bool("regress-ok", false, "with -baseline: report regressions but exit zero (CI report-only mode)")
		plnCheck  = flag.Bool("plans-check", false, "with -json/-baseline: fail unless every profiled body carries a compiled-plan annotation (the bench-plans-smoke gate)")
	)
	obsCfg := obs.AddFlags(flag.CommandLine)
	flightCfg := flight.AddFlags(flag.CommandLine)
	workersFlag := par.AddFlags(flag.CommandLine)
	flag.Parse()
	if err := obs.ValidateFlags(flag.CommandLine, "workers"); err != nil {
		fmt.Fprintln(os.Stderr, "kbbench:", err)
		os.Exit(2)
	}
	par.Configure(workersFlag)
	flush, err := obs.SetupCLI(*obsCfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "kbbench:", err)
		os.Exit(1)
	}
	finish := flight.Setup("kbbench", *flightCfg)
	benching := *benchJSON != "" || *baseline != ""
	if benching {
		// The report's latency summaries need the opt-in timers on, and its
		// trace section the spans of every benchmarked question: unless
		// -flight-events sized the event ring, grow it to hold them.
		obs.SetEnabled(true)
		if flightCfg.Events == 0 {
			obs.ResizeRing(benchRingCapacity)
		}
	}
	// The report's profile section and the observability outputs both want
	// per-rule attribution; plain table runs skip its memory cost.
	obs.SetAttrEnabled(benching || obsCfg.Enabled())

	out := bufio.NewWriter(os.Stdout)
	runErr := run(out, *which, *scale, *reps, *seed)
	if runErr == nil && obsCfg.Enabled() {
		exp.WriteMetrics(out, obs.Default().Snapshot())
	}
	if runErr == nil && benching {
		label := fmt.Sprintf("exp=%s scale=%g reps=%d seed=%d workers=%d", *which, *scale, *reps, *seed, par.Workers())
		snap := obs.Default().Snapshot()
		rep := exp.NewBenchReport(label, snap)
		rep.Profile = exp.BuildProfile(obs.CaptureRules(), snap)
		exp.WriteProfile(out, rep.Profile)
		if ring := obs.CurrentRing(); ring != nil {
			rep.Trace = exp.BuildTraceSummary(obs.SpanRecords(ring.Events()), ring.Total())
		}
		if *plnCheck {
			runErr = exp.CheckPlans(rep.Profile)
		}
		if runErr == nil {
			runErr = benchBaseline(out, rep, *benchJSON, *baseline, *threshold, *regressOK)
		}
	} else if *plnCheck && runErr == nil {
		runErr = fmt.Errorf("-plans-check requires -json or -baseline")
	}
	if err := out.Flush(); err != nil && runErr == nil {
		runErr = fmt.Errorf("writing output: %w", err)
	}
	if err := finish(); err != nil && runErr == nil {
		runErr = err
	}
	if err := flush(); err != nil && runErr == nil {
		runErr = err
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "kbbench:", runErr)
		os.Exit(1)
	}
}

// benchBaseline writes the machine-readable report and, when a baseline is
// given, compares against it. A regression beyond the threshold is an
// error (non-zero exit) unless reportOnly is set.
func benchBaseline(w io.Writer, rep exp.BenchReport, jsonPath, baselinePath string, threshold float64, reportOnly bool) error {
	if jsonPath != "" {
		if err := exp.WriteBenchReportFile(rep, jsonPath); err != nil {
			return err
		}
	}
	if baselinePath == "" {
		return nil
	}
	old, err := exp.ReadBenchReportFile(baselinePath)
	if err != nil {
		return err
	}
	regs := exp.CompareBenchReports(old, rep, threshold)
	exp.WriteBenchComparison(w, old, regs, threshold)
	if len(regs) > 0 && !reportOnly {
		return fmt.Errorf("%d metric(s) regressed beyond %.2fx of %s", len(regs), threshold, baselinePath)
	}
	return nil
}

func scaleInt(n int, s float64) int {
	v := int(float64(n) * s)
	if v < 10 {
		v = 10
	}
	return v
}

func pickReps(def, override int) int {
	if override > 0 {
		return override
	}
	return def
}

func run(out io.Writer, which string, scale float64, reps int, seed int64) error {
	runAll := which == "all"
	ran := false

	if runAll || which == "fig2" {
		ran = true
		for _, v := range []durum.Version{durum.V1, durum.V2} {
			res, err := exp.RunFig2(v, pickReps(10, reps), seed)
			if err != nil {
				return err
			}
			exp.WriteFig2(out, res)
		}
	}
	if runAll || which == "fig3" {
		ran = true
		p := exp.DefaultFig3()
		p.NumFacts = scaleInt(p.NumFacts, scale)
		p.Reps = pickReps(p.Reps, reps)
		p.Seed = seed
		rows, err := exp.RunFig3(p)
		if err != nil {
			return err
		}
		exp.WriteFig3(out, rows)
	}
	if runAll || which == "fig4a" {
		ran = true
		p := exp.DefaultFig4a()
		p.NumFacts = scaleInt(p.NumFacts, scale)
		p.Seed = seed + 4
		series, info, err := exp.RunFig4(p)
		if err != nil {
			return err
		}
		exp.WriteConvergence(out, fmt.Sprintf("%d atoms, 25%%, CDDs only", p.NumFacts), series, info)
	}
	if runAll || which == "fig4b" {
		ran = true
		p := exp.DefaultFig4b()
		p.NumFacts = scaleInt(p.NumFacts, scale)
		p.Seed = seed + 5
		series, info, err := exp.RunFig4(p)
		if err != nil {
			return err
		}
		exp.WriteConvergence(out, fmt.Sprintf("%d atoms, 25%%, 50 CDDs + 25 TGDs", p.NumFacts), series, info)
	}
	if runAll || which == "fig5a" {
		ran = true
		p := exp.DefaultFig5a()
		p.NumFacts = scaleInt(p.NumFacts, scale)
		p.Reps = pickReps(p.Reps, reps)
		p.Seed = seed + 6
		points, err := exp.RunFig5a(p)
		if err != nil {
			return err
		}
		exp.WriteDelays(out, "(a) delay vs. inconsistency ratio", points)
	}
	if runAll || which == "fig5b" {
		ran = true
		p := exp.DefaultFig5b()
		p.BaseFacts = scaleInt(p.BaseFacts, scale)
		p.Reps = pickReps(p.Reps, reps)
		p.Seed = seed + 7
		points, err := exp.RunFig5b(p)
		if err != nil {
			return err
		}
		exp.WriteDelays(out, "(b) delay vs. KB size", points)
	}
	if runAll || which == "fig5c" {
		ran = true
		p := exp.DefaultFig5c()
		p.NumFacts = scaleInt(p.NumFacts, scale)
		p.NumCDDs = scaleInt(p.NumCDDs, scale)
		p.TGDsPerStep = scaleInt(p.TGDsPerStep, scale)
		p.Reps = pickReps(p.Reps, reps)
		p.Seed = seed + 8
		points, err := exp.RunFig5c(p)
		if err != nil {
			return err
		}
		exp.WriteDelays(out, "(c) delay vs. dependency depth", points)
	}
	if runAll || which == "usermodel" {
		ran = true
		p := exp.DefaultUserModel()
		p.NumFacts = scaleInt(p.NumFacts, scale)
		p.Reps = pickReps(p.Reps, reps)
		p.Seed = seed + 11
		points, err := exp.RunUserModel(p)
		if err != nil {
			return err
		}
		exp.WriteUserModel(out, points)
	}
	if runAll || which == "ablation" {
		ran = true
		pi, err := exp.RunAblationPiRep(seed + 9)
		if err != nil {
			return err
		}
		exp.WriteAblation(out, pi)
		inc, err := exp.RunAblationIncremental(seed + 9)
		if err != nil {
			return err
		}
		exp.WriteAblation(out, inc)
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q", which)
	}
	return nil
}
