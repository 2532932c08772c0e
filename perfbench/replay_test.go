package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"kbrepair"
	"kbrepair/internal/inquiry"
	"kbrepair/internal/par"
	"kbrepair/internal/synth"
)

// tinyWorkload is a 60-fact KB with TGDs, so sessions reach phase two.
func tinyWorkload(t *testing.T, seed int64) workload {
	t.Helper()
	return pinned(t, synth.Params{Seed: seed, NumFacts: 60, InconsistencyRatio: 0.3, NumCDDs: 6, NumTGDs: 4})
}

// pinned makes a workload running every strategy on the KB, pinned to its
// current digest.
func pinned(t *testing.T, p synth.Params) workload {
	t.Helper()
	w := workload{name: "tiny", params: p, strategies: inquiry.StrategyNames, users: 1}
	g, err := synth.Generate(w.params)
	if err != nil {
		t.Fatal(err)
	}
	w.digest = digestOf(kbrepair.FormatKB(g.KB))
	return w
}

// TestReplayMatchesEngine replays every strategy through the traced replayer
// and requires the dialogue Engine.Run produced, at one worker and at two.
func TestReplayMatchesEngine(t *testing.T) {
	defer par.SetWorkers(0)
	type kase struct {
		w        workload
		sessions []session
	}
	var cases []kase
	for kbSeed := int64(1); kbSeed <= 4; kbSeed++ {
		w := tinyWorkload(t, kbSeed)
		cases = append(cases, kase{w, w.sessions()})
	}
	// A dense CDD-only KB on which opti-prop's pins starve a question and
	// are released.
	dense := pinned(t, synth.Params{Seed: 1, NumFacts: 60, InconsistencyRatio: 0.5, NumCDDs: 10, JoinVarRatio: 0.6})
	cases = append(cases, kase{dense, []session{{"opti-prop", 2}}})

	phase2, releases := 0, 0
	for _, c := range cases {
		kbSeed := c.w.params.Seed
		text, err := c.w.generate()
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range c.sessions {
			o, err := runSession(text, s)
			if err != nil {
				t.Fatalf("kb %d %s: engine session: %v", kbSeed, s.strategy, err)
			}
			want := transcript(o.log)
			for _, workers := range []int{1, 2} {
				par.SetWorkers(workers)
				var n counts
				log, err := replaySession(newTracer(), text, s, &n)
				if err != nil {
					t.Fatalf("kb %d %s workers %d: replay: %v", kbSeed, s.strategy, workers, err)
				}
				if got := transcript(log); got != want {
					t.Fatalf("kb %d %s workers %d: replayed dialogue differs: %s",
						kbSeed, s.strategy, workers, firstDifference(want, got))
				}
				releases += n.releases
			}
			for _, x := range o.log {
				if x.phase == 2 {
					phase2++
				}
			}
		}
	}
	if phase2 == 0 {
		t.Error("no session reached phase two; the tiny KBs no longer exercise the chase loop")
	}
	if releases == 0 {
		t.Error("no session released propagation pins; the tiny KBs no longer exercise that path")
	}
}

func TestGenerateRefusesDrift(t *testing.T) {
	w := tinyWorkload(t, 1)
	w.digest = strings.Repeat("0", 64)
	if _, err := w.generate(); err == nil || !strings.Contains(err.Error(), "input drift") {
		t.Fatalf("generate with a wrong digest: err = %v, want input drift", err)
	}
}

// TestRunsReportDeclaredMetrics runs both modes on the tiny workload and
// checks each reports exactly the metrics BENCHMARK.json declares.
func TestRunsReportDeclaredMetrics(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	w := tinyWorkload(t, 2)
	text, err := w.generate()
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	res, _ := timedRun(w, text, 1, 0.01, &stdout, &stderr)
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("timed run: %+v\n%s", res, stderr.String())
	}
	checkDeclared(t, "end_to_end", res.Metrics, spec.EndToEnd)

	spans := filepath.Join(t.TempDir(), "spans.jsonl")
	res, _ = tracedRun(w, text, 0.01, spans, &stdout, &stderr)
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("traced run: %+v\n%s", res, stderr.String())
	}
	checkDeclared(t, "per_layer", res.Metrics, spec.PerLayer)
	if b, err := os.ReadFile(spans); err != nil || len(b) == 0 {
		t.Errorf("traced run wrote no spans (err %v)", err)
	}
}

func checkDeclared(t *testing.T, section string, got map[string]metric, declared []struct{ Name, Unit string }) {
	t.Helper()
	want := make(map[string]string)
	for _, d := range declared {
		want[d.Name] = d.Unit
	}
	var extra []string
	for name, m := range got {
		if u, ok := want[name]; !ok {
			extra = append(extra, name)
		} else if u != m.Unit {
			t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", section, name, m.Unit, u)
		}
	}
	var missing []string
	for name := range want {
		if _, ok := got[name]; !ok {
			missing = append(missing, name)
		}
	}
	sort.Strings(extra)
	sort.Strings(missing)
	if len(extra)+len(missing) > 0 {
		t.Errorf("%s: reported but not declared %v; declared but not reported %v", section, extra, missing)
	}
}

func TestCompareRefusesDigestMismatch(t *testing.T) {
	dir := t.TempDir()
	rec := record{Workload: "fig3-cdd", Seed: 1, KBSHA256: "aaaa", Result: result{Correct: true,
		Metrics: map[string]metric{"repair_s": {1, "s"}}}}
	old := filepath.Join(dir, "old.jsonl")
	cur := filepath.Join(dir, "new.jsonl")
	if err := appendRecord(old, rec); err != nil {
		t.Fatal(err)
	}
	rec.Result.Metrics["repair_s"] = metric{1.1, "s"}
	if err := appendRecord(cur, rec); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"compare", old, cur}, &stdout, &stderr); code != 0 {
		t.Fatalf("compare of equal inputs exited %d: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "+10.00%") {
		t.Errorf("compare output lacks the +10%% change:\n%s", stdout.String())
	}
	rec.KBSHA256 = "bbbb"
	if err := appendRecord(cur, rec); err != nil {
		t.Fatal(err)
	}
	stderr.Reset()
	if code := run([]string{"compare", old, cur}, &stdout, &stderr); code != 2 {
		t.Fatalf("compare of different inputs exited %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "refusing") {
		t.Errorf("compare did not say why it refused: %s", stderr.String())
	}
}
