package exp

import (
	"fmt"
	"io"
	"sort"

	"kbrepair/internal/obs/sched"
)

// PhaseEfficiency is one row of the efficiency report: every fan-out
// that ran under one sched label ("core.pi", "conflict.scan", …),
// with Utilization = BusyUS / WorkerUS — the fraction of the phase's
// worker capacity that ran tasks. TopWallUS excludes nested fan-outs
// (a fan-out started from inside another's task), which overlap their
// parent's window and would double-count against total wall time.
type PhaseEfficiency struct {
	Label       string  `json:"label"`
	Fanouts     int64   `json:"fanouts"`
	Tasks       int64   `json:"tasks"`
	Workers     int     `json:"workers"`
	WallUS      int64   `json:"wall_us"`
	TopWallUS   int64   `json:"top_wall_us"`
	BusyUS      int64   `json:"busy_us"`
	WorkerUS    int64   `json:"worker_us"`
	Utilization float64 `json:"utilization"`
}

// Efficiency is the Amdahl decomposition of a benchmarked run, built
// from the sched lane recorder: how much of the wall time ran inside
// parallel fan-outs, how much was serial (the chase, the tracker's
// incremental updates, everything between fan-outs), and the speedup
// ceiling the serial fraction implies. The invariant ParallelUS +
// SerialUS == WallUS holds by construction and is what Validate (and
// the property tests behind make sched-smoke) check.
type Efficiency struct {
	Workers          int               `json:"workers"`
	WallUS           int64             `json:"wall_us"`
	ParallelUS       int64             `json:"parallel_us"`
	SerialUS         int64             `json:"serial_us"`
	SerialFraction   float64           `json:"serial_fraction"`
	AmdahlMaxSpeedup float64           `json:"amdahl_max_speedup"`
	OpenFanouts      int64             `json:"open_fanouts"`
	AbortedFanouts   int64             `json:"aborted_fanouts"`
	Phases           []PhaseEfficiency `json:"phases"`
}

// BuildEfficiency assembles the report from a sched snapshot, the
// measured wall time of the benchmarked work and the configured worker
// count. Returns nil when lane recording was off (nil snapshot) — the
// additive-section contract.
//
// ParallelUS sums only top-level fan-out windows and is clamped to
// WallUS (clock granularity can push the sum a hair past the outer
// measurement), so SerialUS = WallUS − ParallelUS is never negative and
// the two always sum back to WallUS exactly. AmdahlMaxSpeedup is
// WallUS/SerialUS — the speedup ceiling if all fan-out time went to
// zero; 0 means no serial time was measured (no ceiling observed).
func BuildEfficiency(s *sched.Snapshot, wallUS int64, workers int) *Efficiency {
	if s == nil {
		return nil
	}
	e := &Efficiency{
		Workers:        workers,
		WallUS:         wallUS,
		OpenFanouts:    s.OpenFanouts,
		AbortedFanouts: s.AbortedFanouts,
		Phases:         make([]PhaseEfficiency, 0, len(s.Labels)),
	}
	for _, a := range s.Labels {
		p := PhaseEfficiency{
			Label:     a.Label,
			Fanouts:   a.Fanouts,
			Tasks:     a.Tasks,
			Workers:   a.MaxWorkers,
			WallUS:    a.WallUS,
			TopWallUS: a.TopWallUS,
			BusyUS:    a.BusyUS,
			WorkerUS:  a.WorkerUS,
		}
		if a.WorkerUS > 0 {
			p.Utilization = float64(a.BusyUS) / float64(a.WorkerUS)
			if p.Utilization > 1 {
				p.Utilization = 1 // clock-granularity slop, not spare capacity
			}
			if p.Utilization < 0 {
				p.Utilization = 0
			}
		}
		e.ParallelUS += a.TopWallUS
		e.Phases = append(e.Phases, p)
	}
	sort.Slice(e.Phases, func(i, j int) bool { return e.Phases[i].Label < e.Phases[j].Label })
	if e.ParallelUS > e.WallUS {
		e.ParallelUS = e.WallUS
	}
	if e.ParallelUS < 0 {
		e.ParallelUS = 0
	}
	e.SerialUS = e.WallUS - e.ParallelUS
	if e.WallUS > 0 {
		e.SerialFraction = float64(e.SerialUS) / float64(e.WallUS)
	}
	if e.SerialUS > 0 {
		e.AmdahlMaxSpeedup = float64(e.WallUS) / float64(e.SerialUS)
	}
	return e
}

// Validate checks the report's internal consistency — the assertions
// behind kbbench -efficiency-check and make sched-smoke: utilizations
// and fractions in [0,1], the parallel/serial split summing back to the
// wall time, and the lane books balanced (no fan-out left open, none
// aborted by a panic).
func (e *Efficiency) Validate() error {
	if e == nil {
		return fmt.Errorf("efficiency: report missing")
	}
	if e.WallUS <= 0 {
		return fmt.Errorf("efficiency: non-positive wall time %dus", e.WallUS)
	}
	if e.OpenFanouts != 0 {
		return fmt.Errorf("efficiency: %d fan-out(s) still open — lane events unbalanced", e.OpenFanouts)
	}
	if e.AbortedFanouts != 0 {
		return fmt.Errorf("efficiency: %d fan-out(s) aborted — lane events unbalanced", e.AbortedFanouts)
	}
	if e.ParallelUS < 0 || e.SerialUS < 0 {
		return fmt.Errorf("efficiency: negative split parallel=%dus serial=%dus", e.ParallelUS, e.SerialUS)
	}
	if e.ParallelUS+e.SerialUS != e.WallUS {
		return fmt.Errorf("efficiency: parallel %dus + serial %dus != wall %dus",
			e.ParallelUS, e.SerialUS, e.WallUS)
	}
	if e.SerialFraction < 0 || e.SerialFraction > 1 {
		return fmt.Errorf("efficiency: serial fraction %g outside [0,1]", e.SerialFraction)
	}
	for _, p := range e.Phases {
		if p.Utilization < 0 || p.Utilization > 1 {
			return fmt.Errorf("efficiency: phase %s utilization %g outside [0,1]", p.Label, p.Utilization)
		}
		if p.TopWallUS > p.WallUS {
			return fmt.Errorf("efficiency: phase %s top wall %dus exceeds wall %dus", p.Label, p.TopWallUS, p.WallUS)
		}
	}
	return nil
}

// WriteEfficiency renders the report as the human-readable section
// kbbench prints alongside its tables (kbdump and kbtrace reuse it for
// bundles and -sched snapshots).
func WriteEfficiency(w io.Writer, e *Efficiency) {
	if e == nil {
		return
	}
	fmt.Fprintf(w, "== Parallel efficiency (workers=%d) ==\n", e.Workers)
	fmt.Fprintf(w, "  wall %.3fms = parallel %.3fms + serial %.3fms (serial fraction %.1f%%, Amdahl max speedup %.2fx)\n",
		float64(e.WallUS)/1e3, float64(e.ParallelUS)/1e3, float64(e.SerialUS)/1e3,
		e.SerialFraction*100, e.AmdahlMaxSpeedup)
	if e.OpenFanouts != 0 || e.AbortedFanouts != 0 {
		fmt.Fprintf(w, "  WARNING: unbalanced lanes — %d open, %d aborted fan-out(s)\n",
			e.OpenFanouts, e.AbortedFanouts)
	}
	for _, p := range e.Phases {
		fmt.Fprintf(w, "  %-18s %5.1f%% utilization  %6d tasks  %5d fanouts  busy %8.3fms / capacity %8.3fms\n",
			p.Label, p.Utilization*100, p.Tasks, p.Fanouts,
			float64(p.BusyUS)/1e3, float64(p.WorkerUS)/1e3)
	}
}
