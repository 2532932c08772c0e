package obs

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
)

// withAttr runs f with attribution forced on, restoring the prior state.
func withAttr(t *testing.T, f func()) {
	t.Helper()
	prev := AttrEnabled()
	SetAttrEnabled(true)
	defer SetAttrEnabled(prev)
	f()
}

func TestInternDenseAndStable(t *testing.T) {
	a := Intern("test.intern/a")
	b := Intern("test.intern/b")
	if a == b {
		t.Fatalf("distinct keys share ID %d", a)
	}
	if got := Intern("test.intern/a"); got != a {
		t.Fatalf("re-intern returned %d, want %d", got, a)
	}
	ruleMu.Lock()
	keys := ruleKeys
	ruleMu.Unlock()
	if keys[a] != "test.intern/a" || keys[b] != "test.intern/b" {
		t.Fatalf("keys misaligned: %q@%d %q@%d", keys[a], a, keys[b], b)
	}
}

func TestOwnerBinding(t *testing.T) {
	type rule struct{ name string }
	r := &rule{"r1"}
	if id, ok := OwnerID(r); ok {
		t.Fatalf("unbound owner resolved to %d", id)
	}
	id := BindOwner(r, "test.owner/r1")
	if id != Intern("test.owner/r1") {
		t.Fatalf("BindOwner ID %d != Intern ID %d", id, Intern("test.owner/r1"))
	}
	got, ok := OwnerID(r)
	if !ok || got != id {
		t.Fatalf("OwnerID = %d,%v want %d,true", got, ok, id)
	}
	// Second binding keeps the first ID.
	if again := BindOwner(r, "test.owner/other"); again != id {
		t.Fatalf("rebind returned %d, want first ID %d", again, id)
	}
}

// ruleValue reads one per-rule cell of c.
func ruleValue(c *Counter, id ID) int64 { return (*c.rules.Load())[id].Value() }

// TestRuleCounterRecording pins the routing rule: each AddFor lands in
// exactly one cell — the rule's when attribution is on and the ID is real,
// the unattributed cell otherwise — and the total is their sum.
func TestRuleCounterRecording(t *testing.T) {
	c := NewRuleCounter("test.counter_recording")
	id := Intern("test.counter_recording/key")
	ResetRules()

	SetAttrEnabled(false)
	c.AddFor(id, 5)
	if got := ruleValue(c, id); got != 0 {
		t.Fatalf("disabled AddFor billed the rule: %d", got)
	}

	withAttr(t, func() {
		c.AddFor(id, 5)
		c.AddFor(None, 100)
		c.AddFor(id, 2)
	})
	if got := ruleValue(c, id); got != 7 {
		t.Fatalf("rule cell = %d, want 7", got)
	}
	if got := c.Unattributed(); got != 105 {
		t.Fatalf("unattributed = %d, want 105", got)
	}
	if got := c.Value(); got != 112 {
		t.Fatalf("total = %d, want 112", got)
	}
	if got := Default().Snapshot().Counters["test.counter_recording"]; got != 112 {
		t.Fatalf("registry total = %d, want 112", got)
	}
	NewRuleOnlyCounter("test.counter_rule_only")
	if _, ok := Default().Snapshot().Counters["test.counter_rule_only"]; ok {
		t.Fatal("rule-only counter reached the registry")
	}
}

// TestRuleHistogramMerge: the registry snapshot of a rule histogram merges
// the unattributed cell with every per-rule cell — buckets, count, sum,
// min and max.
func TestRuleHistogramMerge(t *testing.T) {
	h := NewRuleHistogram("test.hist_recording", SizeBuckets)
	id := Intern("test.hist_recording/key")
	ResetRules()
	withAttr(t, func() {
		h.ObserveFor(id, 3)
		h.ObserveFor(id, 300)
		h.ObserveFor(None, 0.5)
	})
	s := SnapshotRules()
	i := sort.SearchStrings(s.Keys, "test.hist_recording/key")
	if r := s.Histogram("test.hist_recording", i); r.Count != 2 || r.Sum != 303 {
		t.Fatalf("rule cell count=%d sum=%v, want 2/303", r.Count, r.Sum)
	}
	got := Default().Snapshot().Histograms["test.hist_recording"]
	if got.Count != 3 || got.Sum != 303.5 || got.Min != 0.5 || got.Max != 300 {
		t.Fatalf("merged count=%d sum=%v min=%v max=%v, want 3/303.5/0.5/300", got.Count, got.Sum, got.Min, got.Max)
	}
	var n int64
	for _, c := range got.Counts {
		n += c
	}
	if n != 3 || got.Counts[0] != 1 {
		t.Fatalf("merged buckets %v", got.Counts)
	}
	if h.Count() != 3 {
		t.Fatalf("Count() = %d, want 3", h.Count())
	}
}

func TestSnapshotSortedAndAligned(t *testing.T) {
	v := NewRuleCounter("test.snapshot_sorted")
	// Intern in an order that is not lexicographic.
	idB := Intern("test.snapshot_sorted/b")
	idA := Intern("test.snapshot_sorted/a")
	withAttr(t, func() {
		v.AddFor(idA, 1)
		v.AddFor(idB, 2)
	})
	s := SnapshotRules()
	if !sort.StringsAreSorted(s.Keys) {
		t.Fatal("snapshot keys not sorted")
	}
	find := func(key string) int {
		i := sort.SearchStrings(s.Keys, key)
		if i == len(s.Keys) || s.Keys[i] != key {
			t.Fatalf("key %q missing from snapshot", key)
		}
		return i
	}
	if got := s.Counter("test.snapshot_sorted", find("test.snapshot_sorted/a")); got != 1 {
		t.Fatalf("a = %d, want 1", got)
	}
	if got := s.Counter("test.snapshot_sorted", find("test.snapshot_sorted/b")); got != 2 {
		t.Fatalf("b = %d, want 2", got)
	}
}

func TestCaptureNilWhenDisabled(t *testing.T) {
	SetAttrEnabled(false)
	if s := CaptureRules(); s != nil {
		t.Fatal("CaptureRules returned a snapshot while disabled")
	}
	withAttr(t, func() {
		if s := CaptureRules(); s == nil {
			t.Fatal("CaptureRules returned nil while enabled")
		}
	})
}

func TestResetZeroesCellsKeepsIDs(t *testing.T) {
	v := NewRuleOnlyCounter("test.reset")
	id := Intern("test.reset/key")
	withAttr(t, func() {
		v.AddFor(id, 9)
		v.AddFor(None, 1)
		ResetRules()
		if got := v.Value(); got != 0 {
			t.Fatalf("post-Reset value = %d", got)
		}
		v.AddFor(id, 4)
	})
	if got := ruleValue(v, id); got != 4 {
		t.Fatalf("handle dead after Reset: value = %d, want 4", got)
	}
}

// TestConcurrentAddVsSnapshot races recorders against Intern and
// SnapshotRules; under -race this is the memory-safety proof for the
// copy-on-write slices.
func TestConcurrentAddVsSnapshot(t *testing.T) {
	v := NewRuleCounter("test.race_counter")
	h := NewRuleHistogram("test.race_hist", SizeBuckets)
	ResetRules()
	withAttr(t, func() {
		const (
			writers = 8
			perW    = 500
		)
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < perW; i++ {
					id := Intern(fmt.Sprintf("test.race/%d", i%17))
					v.AddFor(id, 1)
					h.ObserveFor(id, float64(i))
				}
			}(w)
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			for i := 0; i < 50; i++ {
				SnapshotRules()
			}
		}()
		wg.Wait()
		<-done

		s := SnapshotRules()
		var total int64
		for i := range s.Keys {
			if strings.HasPrefix(s.Keys[i], "test.race/") {
				total += s.Counter("test.race_counter", i)
			}
		}
		if want := int64(writers * perW); total != want {
			t.Fatalf("lost updates: total = %d, want %d", total, want)
		}
	})
}

// TestRecordAllocs pins the zero-allocation contract of the hot paths, both
// gates of it: disabled recording and enabled recording.
func TestRecordAllocs(t *testing.T) {
	v := NewRuleCounter("test.allocs_counter")
	h := NewRuleHistogram("test.allocs_hist", SizeBuckets)
	id := Intern("test.allocs/key")

	SetAttrEnabled(false)
	if n := testing.AllocsPerRun(100, func() { v.AddFor(id, 1) }); n != 0 {
		t.Fatalf("disabled Counter.AddFor allocates %v/op", n)
	}
	if n := testing.AllocsPerRun(100, func() { h.ObserveFor(id, 1) }); n != 0 {
		t.Fatalf("disabled Histogram.ObserveFor allocates %v/op", n)
	}

	withAttr(t, func() {
		if n := testing.AllocsPerRun(100, func() { v.AddFor(id, 1) }); n != 0 {
			t.Fatalf("enabled Counter.AddFor allocates %v/op", n)
		}
		if n := testing.AllocsPerRun(100, func() { h.ObserveFor(id, 1) }); n != 0 {
			t.Fatalf("enabled Histogram.ObserveFor allocates %v/op", n)
		}
	})
}

func TestRowsOrderingAndShares(t *testing.T) {
	searches := NewRuleCounter(FamSearches)
	nodes := NewRuleCounter(FamNodes)
	secs := NewRuleOnlyHistogram(FamSearchSeconds, nil)
	a := Intern("test.rows/a")
	b := Intern("test.rows/b")
	c := Intern("test.rows/c")
	withAttr(t, func() {
		ResetRules()
		searches.AddFor(a, 1)
		nodes.AddFor(a, 100)
		secs.ObserveFor(a, 0.25)
		searches.AddFor(b, 1)
		nodes.AddFor(b, 900)
		secs.ObserveFor(b, 0.75)
		searches.AddFor(c, 1)
		nodes.AddFor(c, 50)
		// c has no timing: sorts last even though interned after b.
	})
	var rows []Row
	for _, r := range Rows(SnapshotRules()) {
		if strings.HasPrefix(r.Body, "test.rows/") {
			rows = append(rows, r)
		}
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(rows))
	}
	if rows[0].Body != "test.rows/b" || rows[1].Body != "test.rows/a" || rows[2].Body != "test.rows/c" {
		t.Fatalf("order = %q,%q,%q", rows[0].Body, rows[1].Body, rows[2].Body)
	}
	if rows[0].TimeShare <= rows[1].TimeShare {
		t.Fatalf("time shares not ordered: %v vs %v", rows[0].TimeShare, rows[1].TimeShare)
	}
}

func TestProfilezHandler(t *testing.T) {
	searches := NewRuleCounter(FamSearches)
	nodes := NewRuleCounter(FamNodes)
	id := Intern("test.profilez/body")
	withAttr(t, func() {
		ResetRules()
		searches.AddFor(id, 3)
		nodes.AddFor(id, 42)
	})

	rec := httptest.NewRecorder()
	profilezHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/profilez?k=0", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	var doc struct {
		Bodies int   `json:"bodies"`
		Rows   []Row `json:"rows"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	found := false
	for _, r := range doc.Rows {
		if r.Body == "test.profilez/body" && r.Searches == 3 && r.Nodes == 42 {
			found = true
		}
	}
	if !found {
		t.Fatalf("row missing from /profilez: %+v", doc.Rows)
	}

	rec = httptest.NewRecorder()
	profilezHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/profilez?k=junk", nil))
	if rec.Code != 400 {
		t.Fatalf("bad k: status %d, want 400", rec.Code)
	}
}

func TestRulePromSection(t *testing.T) {
	searches := NewRuleCounter(FamSearches)
	nodes := NewRuleCounter(FamNodes)
	id := Intern("test.prom/body")
	withAttr(t, func() {
		ResetRules()
		searches.AddFor(id, 2)
		nodes.AddFor(id, 7)
	})
	var b strings.Builder
	if err := writeRuleProm(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, `kbrepair_rule_backtrack_nodes_total{rule="test.prom/body"} 7`) {
		t.Fatalf("per-rule series missing:\n%s", out)
	}
	if !strings.Contains(out, "kbrepair_rule_series_truncated") {
		t.Fatalf("truncation gauge missing:\n%s", out)
	}
	// The full exposition — what /metrics serves — carries the section.
	var full strings.Builder
	if err := WriteFullPrometheus(&full, Snapshot{}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(full.String(), "kbrepair_rule_searches_total") {
		t.Fatal("WriteFullPrometheus missing the per-rule section")
	}
}
