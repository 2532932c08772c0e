package exp

import (
	"testing"

	"kbrepair/internal/inquiry"
	"kbrepair/internal/obs"
	"kbrepair/internal/synth"
)

// The metrics recorded once per event with a per-rule breakdown: their
// registry totals are derived from the per-rule cells plus the
// unattributed cell, so they must not depend on whether attribution is on.
var (
	derivedCounters = []string{
		"homo.searches", "homo.backtrack_nodes", "homo.index_probes",
		"chase.trigger_checks", "chase.rule_firings", "chase.facts_derived",
		"conflict.conflicts_found",
		"core.pi_fast_hits", "core.pi_full_checks",
		"inquiry.questions",
	}
	derivedHistograms = []string{"core.pi_check_seconds", "inquiry.question_delay_seconds"}
)

// repairOnce runs one fixed repair (a fresh KB with TGDs, the simulated
// user, seed 1) from zeroed metrics and returns the registry and rule
// snapshots it leaves behind.
func repairOnce(t *testing.T, attr bool) (obs.Snapshot, *obs.RuleSnapshot) {
	t.Helper()
	obs.SetAttrEnabled(attr)
	obs.ResetRules()
	obs.Default().Reset()
	g, err := synth.Generate(synth.Params{
		Seed: 5, NumFacts: 300, InconsistencyRatio: 0.2, NumCDDs: 10, NumTGDs: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	e := inquiry.New(g.KB, inquiry.OptiMCD{}, inquiry.NewSimulatedUser(1), 1, inquiry.Options{})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return obs.Default().Snapshot(), obs.SnapshotRules()
}

// TestDerivedTotals runs the same repair with attribution off and on. Each
// per-rule metric's registry total must match across the two runs, and
// with attribution on it must equal the per-rule sum plus the unattributed
// cell — bucket by bucket for the histograms.
func TestDerivedTotals(t *testing.T) {
	prevAttr, prevTiming := obs.AttrEnabled(), obs.Enabled()
	obs.SetEnabled(true) // the Π-check histogram observes only with timing on
	t.Cleanup(func() {
		obs.SetAttrEnabled(prevAttr)
		obs.SetEnabled(prevTiming)
		obs.ResetRules()
		obs.Default().Reset()
	})

	off, _ := repairOnce(t, false)
	on, rules := repairOnce(t, true)

	for _, name := range derivedCounters {
		total := on.Counters[name]
		if off.Counters[name] != total {
			t.Errorf("%s: total %d with attribution off, %d with it on", name, off.Counters[name], total)
		}
		if total == 0 {
			t.Errorf("%s: the workload never records it", name)
		}
		var perRule int64
		for i := range rules.Keys {
			perRule += rules.Counter(name, i)
		}
		if perRule == 0 {
			t.Errorf("%s: nothing attributed to any rule", name)
		}
		if un := obs.NewRuleCounter(name).Unattributed(); perRule+un != total {
			t.Errorf("%s: per-rule %d + unattributed %d != total %d", name, perRule, un, total)
		}
	}

	for _, name := range derivedHistograms {
		total := on.Histograms[name]
		if off.Histograms[name].Count != total.Count {
			t.Errorf("%s: count %d with attribution off, %d with it on", name, off.Histograms[name].Count, total.Count)
		}
		if total.Count == 0 {
			t.Errorf("%s: the workload never records it", name)
		}
		un := obs.NewRuleHistogram(name, nil).Unattributed()
		count, buckets := un.Count, append([]int64(nil), un.Counts...)
		for i := range rules.Keys {
			h := rules.Histogram(name, i)
			count += h.Count
			for b, c := range h.Counts {
				buckets[b] += c
			}
		}
		if count != total.Count {
			t.Errorf("%s: per-rule + unattributed count %d != total %d", name, count, total.Count)
		}
		for b := range buckets {
			if buckets[b] != total.Counts[b] {
				t.Errorf("%s: bucket %d sums to %d, total has %d", name, b, buckets[b], total.Counts[b])
			}
		}
	}
}
