package exp

import (
	"fmt"
	"io"

	"kbrepair/internal/homo"
	"kbrepair/internal/obs"
)

// ProfileTopK bounds the profile rows embedded in a BenchReport. Fifty
// bodies cover every rule of the paper's workloads several times over; a
// truncated profile says so via the Truncated field instead of silently.
const ProfileTopK = 50

// Profile is the plan-quality section of a BenchReport: per-body search
// cost attribution plus the plan-cache health figures. It is derived
// entirely from deterministic quantities when obs timing is off, so two
// runs of the same workload at any worker counts marshal byte-identically.
type Profile struct {
	// PlanCompiles / PlanCacheHits are the global plan-cache counters;
	// CacheHitRate is hits/(hits+compiles), 0 when neither moved.
	PlanCompiles  int64   `json:"plan_compiles"`
	PlanCacheHits int64   `json:"plan_cache_hits"`
	CacheHitRate  float64 `json:"cache_hit_rate"`
	// Bodies is the number of distinct bodies with at least one search,
	// before the top-K truncation; Truncated is how many rows were dropped.
	Bodies    int `json:"bodies"`
	Truncated int `json:"truncated,omitempty"`
	// Rows are the most expensive bodies, sorted by self-time then
	// backtrack nodes (see obs.Rows).
	Rows []obs.Row `json:"rows"`
}

// BuildProfile assembles the profile from a rule snapshot and the global
// metrics snapshot. A nil rule snapshot (attribution was disabled) yields
// a nil profile, so the BenchReport section is omitted rather than empty.
func BuildProfile(s *obs.RuleSnapshot, m obs.Snapshot) *Profile {
	if s == nil {
		return nil
	}
	rows := obs.Rows(s)
	p := &Profile{
		PlanCompiles:  m.Counters["homo.plan_compiles"],
		PlanCacheHits: m.Counters["homo.plan_cache_hits"],
		Bodies:        len(rows),
	}
	if total := p.PlanCompiles + p.PlanCacheHits; total > 0 {
		p.CacheHitRate = float64(p.PlanCacheHits) / float64(total)
	}
	if len(rows) > ProfileTopK {
		p.Truncated = len(rows) - ProfileTopK
		rows = rows[:ProfileTopK]
	}
	// Join each row to its compiled-plan annotation: the kernel mode and the
	// compile-time order the body actually ran with. Rows are keyed by the
	// body's canonical string — the same key homo records plans under.
	for i := range rows {
		if info, ok := homo.PlanInfoFor(rows[i].Body); ok {
			rows[i].Mode = info.Mode
			rows[i].Order = info.OrderString()
		}
	}
	p.Rows = rows
	return p
}

// WriteProfile renders the plan-quality section kbbench prints alongside
// its tables: plan-cache health, then the most expensive bodies with the
// kernel mode and compile-time join order each one ran with.
func WriteProfile(w io.Writer, p *Profile) {
	if p == nil {
		return
	}
	fmt.Fprintf(w, "== Plan quality (%d bodies, cache hit rate %.1f%%: %d compiles, %d hits) ==\n",
		p.Bodies, p.CacheHitRate*100, p.PlanCompiles, p.PlanCacheHits)
	fmt.Fprintf(w, "  %-40s %-8s %9s %12s %9s  %s\n",
		"body", "mode", "searches", "nodes", "matches", "order")
	for _, r := range p.Rows {
		body := r.Body
		if len(body) > 40 {
			body = body[:37] + "..."
		}
		mode := r.Mode
		if mode == "" {
			mode = "-"
		}
		fmt.Fprintf(w, "  %-40s %-8s %9d %12d %9d  %s\n",
			body, mode, r.Searches, r.Nodes, r.Matches, r.Order)
	}
	if p.Truncated > 0 {
		fmt.Fprintf(w, "  ... %d more bodies elided\n", p.Truncated)
	}
	fmt.Fprintln(w)
}

// CheckPlans is the gate behind kbbench -plans-check (make
// bench-plans-smoke): every profiled body must carry a compiled-plan
// annotation from the live plan registry, so it only makes sense in the
// process that ran the searches.
func CheckPlans(p *Profile) error {
	if p == nil {
		return fmt.Errorf("plans: profile missing (attribution was off)")
	}
	for _, r := range p.Rows {
		if r.Mode == "" {
			return fmt.Errorf("plans: body %q ran without a compiled-plan annotation", r.Body)
		}
		if _, ok := homo.PlanInfoFor(r.Body); !ok {
			return fmt.Errorf("plans: body %q missing from the plan registry", r.Body)
		}
	}
	return nil
}
