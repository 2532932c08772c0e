package exp

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"kbrepair/internal/obs"
	"kbrepair/internal/obs/sched"
	"kbrepair/internal/par"
)

func TestBuildEfficiencyNilSnapshot(t *testing.T) {
	if e := BuildEfficiency(nil, 1000, 4); e != nil {
		t.Fatalf("BuildEfficiency(nil snapshot) = %+v, want nil (additive-section contract)", e)
	}
}

// TestBuildEfficiencyProperties is the property test behind make
// sched-smoke: over randomized synthetic snapshots, the report must always
// satisfy ParallelUS + SerialUS == WallUS exactly, keep every fraction and
// utilization inside [0,1], and pass its own Validate.
func TestBuildEfficiencyProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 500; trial++ {
		wall := rng.Int63n(10_000_000) + 1
		nLabels := rng.Intn(6)
		s := &sched.Snapshot{Enabled: true}
		for l := 0; l < nLabels; l++ {
			workers := rng.Intn(8) + 1
			labelWall := rng.Int63n(wall + 1)
			top := rng.Int63n(labelWall + 1)
			workerUS := int64(workers) * labelWall
			busy := rng.Int63n(workerUS + 1)
			s.Labels = append(s.Labels, sched.LabelAgg{
				Label:      string(rune('a'+l)) + ".phase",
				Fanouts:    rng.Int63n(100) + 1,
				Tasks:      rng.Int63n(10_000),
				WallUS:     labelWall,
				TopWallUS:  top,
				BusyUS:     busy,
				WorkerUS:   workerUS,
				MaxWorkers: workers,
			})
		}
		e := BuildEfficiency(s, wall, 4)
		if e == nil {
			t.Fatal("BuildEfficiency returned nil for a non-nil snapshot")
		}
		if err := e.Validate(); err != nil {
			t.Fatalf("trial %d: Validate: %v\nreport: %+v", trial, err, e)
		}
		if e.ParallelUS+e.SerialUS != e.WallUS {
			t.Fatalf("trial %d: parallel %d + serial %d != wall %d", trial, e.ParallelUS, e.SerialUS, e.WallUS)
		}
		if e.SerialUS > 0 {
			want := float64(e.WallUS) / float64(e.SerialUS)
			if e.AmdahlMaxSpeedup != want {
				t.Fatalf("trial %d: Amdahl %g, want %g", trial, e.AmdahlMaxSpeedup, want)
			}
		} else if e.AmdahlMaxSpeedup != 0 {
			t.Fatalf("trial %d: Amdahl %g with zero serial time, want 0", trial, e.AmdahlMaxSpeedup)
		}
	}
}

func TestBuildEfficiencyClampsOvershoot(t *testing.T) {
	// Clock granularity can make the top-level window sum exceed the outer
	// wall measurement; the split must clamp rather than go negative.
	s := &sched.Snapshot{Enabled: true, Labels: []sched.LabelAgg{
		{Label: "a", WallUS: 900, TopWallUS: 900, BusyUS: 900, WorkerUS: 900, MaxWorkers: 1},
		{Label: "b", WallUS: 400, TopWallUS: 400, BusyUS: 400, WorkerUS: 400, MaxWorkers: 1},
	}}
	e := BuildEfficiency(s, 1000, 1)
	if e.ParallelUS != 1000 || e.SerialUS != 0 {
		t.Fatalf("split = parallel %d serial %d, want 1000/0 (clamped)", e.ParallelUS, e.SerialUS)
	}
	if err := e.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestEfficiencyValidateRejects(t *testing.T) {
	base := func() *Efficiency {
		return BuildEfficiency(&sched.Snapshot{Enabled: true, Labels: []sched.LabelAgg{
			{Label: "a", WallUS: 500, TopWallUS: 500, BusyUS: 500, WorkerUS: 500, MaxWorkers: 1},
		}}, 1000, 1)
	}
	var nilE *Efficiency
	if err := nilE.Validate(); err == nil {
		t.Error("nil report validated")
	}
	e := base()
	e.OpenFanouts = 1
	if err := e.Validate(); err == nil || !strings.Contains(err.Error(), "open") {
		t.Errorf("open fan-out accepted: %v", err)
	}
	e = base()
	e.AbortedFanouts = 2
	if err := e.Validate(); err == nil || !strings.Contains(err.Error(), "aborted") {
		t.Errorf("aborted fan-out accepted: %v", err)
	}
	e = base()
	e.WallUS = 0
	if err := e.Validate(); err == nil {
		t.Error("zero wall time accepted")
	}
	e = base()
	e.SerialUS++ // break the sum
	if err := e.Validate(); err == nil {
		t.Error("parallel+serial != wall accepted")
	}
	e = base()
	e.Phases[0].Utilization = 1.5
	if err := e.Validate(); err == nil {
		t.Error("utilization > 1 accepted")
	}
	e = base()
	e.Phases[0].TopWallUS = e.Phases[0].WallUS + 1
	if err := e.Validate(); err == nil {
		t.Error("phase top wall > wall accepted")
	}
}

// TestBuildEfficiencyFromRealRun drives real par fan-outs under a live
// recorder and checks the report a CLI would assemble: the snapshot's
// aggregates and the measured wall time stay mutually consistent.
func TestBuildEfficiencyFromRealRun(t *testing.T) {
	sched.Enable(0)
	defer sched.Disable()
	prev := par.SetWorkers(2)
	defer par.SetWorkers(prev)
	wallStart := time.Now()
	for round := 0; round < 3; round++ {
		par.MapNamed("test.chase", 8, func(i int) int {
			sink := 0
			for j := 0; j < 1000; j++ {
				sink += i * j
			}
			return sink
		})
		par.DoNamed("test.scan", 4, func(int) {})
	}
	wallUS := time.Since(wallStart).Microseconds()
	if wallUS <= 0 {
		wallUS = 1
	}
	e := BuildEfficiency(sched.Capture(), wallUS, par.Workers())
	if e == nil {
		t.Fatal("nil report from a live recorder")
	}
	if err := e.Validate(); err != nil {
		t.Fatalf("Validate on a real run: %v\nreport: %+v", err, e)
	}
	if len(e.Phases) != 2 {
		t.Fatalf("phases = %+v, want test.chase and test.scan", e.Phases)
	}
	if e.Phases[0].Label != "test.chase" || e.Phases[1].Label != "test.scan" {
		t.Fatalf("phase order = %q, %q", e.Phases[0].Label, e.Phases[1].Label)
	}
	if e.Phases[0].Tasks != 24 || e.Phases[1].Tasks != 12 {
		t.Fatalf("task counts = %d, %d, want 24, 12", e.Phases[0].Tasks, e.Phases[1].Tasks)
	}
}

func TestWriteEfficiencyRendering(t *testing.T) {
	var sb strings.Builder
	WriteEfficiency(&sb, nil) // nil report renders nothing
	if sb.Len() != 0 {
		t.Fatalf("nil report rendered %q", sb.String())
	}
	e := BuildEfficiency(&sched.Snapshot{Enabled: true, Labels: []sched.LabelAgg{
		{Label: "core.pi", Fanouts: 3, Tasks: 30, WallUS: 600, TopWallUS: 600,
			BusyUS: 900, WorkerUS: 1200, MaxWorkers: 2},
	}}, 1000, 2)
	WriteEfficiency(&sb, e)
	out := sb.String()
	for _, want := range []string{
		"Parallel efficiency (workers=2)",
		"core.pi",
		"75.0% utilization",
		"serial fraction 40.0%",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("rendering missing %q:\n%s", want, out)
		}
	}
}

func TestBenchReportEfficiencyRoundtrip(t *testing.T) {
	e := BuildEfficiency(&sched.Snapshot{Enabled: true, Labels: []sched.LabelAgg{
		{Label: "a", WallUS: 10, TopWallUS: 10, BusyUS: 10, WorkerUS: 10, MaxWorkers: 1},
	}}, 100, 1)
	r := NewBenchReport("efficiency-test", obs.Snapshot{})
	r.Efficiency = e
	var sb strings.Builder
	if err := r.Write(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `"efficiency"`) {
		t.Fatal("efficiency section missing from report JSON")
	}
	if !strings.Contains(sb.String(), `"amdahl_max_speedup"`) {
		t.Fatal("amdahl_max_speedup missing from report JSON")
	}
}
