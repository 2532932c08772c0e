package flight

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"kbrepair/internal/obs"
)

func clearProviders(t *testing.T) {
	t.Helper()
	t.Cleanup(func() {
		SetDigestProvider(nil)
		SetJournalProvider(nil)
	})
}

func TestCaptureSections(t *testing.T) {
	resetGlobal(t)
	clearProviders(t)
	obs.EnableRing(32)
	obs.Point(obs.KindParDispatch, "core.pi", 4, 2)
	SetDigestProvider(func() any { return map[string]int{"facts": 42} })
	SetJournalProvider(func() any { return map[string]string{"strategy": "random"} })

	b := Capture("test-reason")
	if b.SchemaVersion != BundleSchemaVersion {
		t.Errorf("schema = %d, want %d", b.SchemaVersion, BundleSchemaVersion)
	}
	if b.Reason != "test-reason" {
		t.Errorf("reason = %q", b.Reason)
	}
	// The capture itself appends a bundle_dump event after the dispatch.
	if b.EventsRetained < 2 {
		t.Fatalf("retained %d events, want >= 2", b.EventsRetained)
	}
	last := b.Events[len(b.Events)-1]
	if !bytes.Contains(last, []byte("flight.bundle_dump")) {
		t.Errorf("last event is not the bundle_dump marker: %s", last)
	}
	if !strings.Contains(b.Goroutines, "goroutine") {
		t.Error("goroutine stacks missing")
	}
	if !bytes.Contains(b.KBDigest, []byte("42")) {
		t.Errorf("digest section = %s", b.KBDigest)
	}
	if !bytes.Contains(b.Journal, []byte("random")) {
		t.Errorf("journal section = %s", b.Journal)
	}
	if b.Env.GoVersion == "" || b.Env.PID == 0 {
		t.Errorf("env stamp incomplete: %+v", b.Env)
	}
	for _, want := range []string{"events.jsonl", "metrics.json", "goroutines.txt", "manifest.json", "kb_digest.json", "journal.json"} {
		found := false
		for _, s := range b.Sections {
			if s == want {
				found = true
			}
		}
		if !found {
			t.Errorf("manifest sections missing %s (have %v)", want, b.Sections)
		}
	}
}

func TestBundleDirRoundtrip(t *testing.T) {
	resetGlobal(t)
	clearProviders(t)
	obs.EnableRing(32)
	obs.Start(obs.KindQuestion, 0, 1, 1, 5).End(3, 120)
	SetDigestProvider(func() any { return map[string]int{"facts": 7} })

	dir := filepath.Join(t.TempDir(), "bundle")
	b := Capture("roundtrip")
	if err := b.WriteDir(dir); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBundle(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Reason != "roundtrip" || got.SchemaVersion != BundleSchemaVersion {
		t.Errorf("manifest did not roundtrip: %+v", got.Manifest)
	}
	if len(got.Events) != len(b.Events) {
		t.Errorf("events: %d read, %d written", len(got.Events), len(b.Events))
	}
	if !bytes.Equal(bytes.TrimSpace(got.KBDigest), bytes.TrimSpace(b.KBDigest)) {
		t.Errorf("digest did not roundtrip: %s vs %s", got.KBDigest, b.KBDigest)
	}
	if got.Goroutines != b.Goroutines {
		t.Error("goroutines did not roundtrip")
	}
}

func TestBundleJSONRoundtrip(t *testing.T) {
	resetGlobal(t)
	clearProviders(t)
	obs.EnableRing(32)
	obs.Point(obs.KindAnswer, "v", 2, 0, 0)

	path := filepath.Join(t.TempDir(), "debugz.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	b := Capture("json-roundtrip")
	if err := b.WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	got, err := ReadBundle(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Reason != "json-roundtrip" || len(got.Events) != len(b.Events) {
		t.Errorf("single-file bundle did not roundtrip: %+v", got.Manifest)
	}
}

func TestReadBundleRejectsWrongSchema(t *testing.T) {
	dir := t.TempDir()
	manifest := `{"schema_version": 99, "reason": "future"}`
	if err := os.WriteFile(filepath.Join(dir, "manifest.json"), []byte(manifest), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadBundle(dir); err == nil || !strings.Contains(err.Error(), "schema version 99") {
		t.Fatalf("wrong-schema bundle accepted: %v", err)
	}
}

func TestDebugzEndpoint(t *testing.T) {
	resetGlobal(t)
	clearProviders(t)
	obs.EnableRing(32)
	obs.StartNote(obs.KindInquiryRun, 0, "random", 10).End(0, 1)

	srv := httptest.NewServer(obs.DebugMux())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/debugz?reason=unit")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type = %q", ct)
	}
	var b Bundle
	if err := json.NewDecoder(resp.Body).Decode(&b); err != nil {
		t.Fatalf("debugz payload is not a bundle: %v", err)
	}
	if b.Reason != "http:unit" {
		t.Errorf("reason = %q, want http:unit", b.Reason)
	}
	if b.SchemaVersion != BundleSchemaVersion || len(b.Events) == 0 {
		t.Errorf("debugz bundle incomplete: schema=%d events=%d", b.SchemaVersion, len(b.Events))
	}
}

func TestSetupDisablesRecorder(t *testing.T) {
	resetGlobal(t)
	obs.DisableRing()
	finish := Setup("flighttest", Config{Events: -1})
	if obs.CurrentRing() != nil {
		t.Fatal("ring enabled with Events < 0")
	}
	if err := finish(); err != nil {
		t.Fatal(err)
	}
}

func TestSetupExitBundle(t *testing.T) {
	resetGlobal(t)
	clearProviders(t)
	dir := filepath.Join(t.TempDir(), "exit-bundle")
	finish := Setup("flighttest", Config{BundleDir: dir, Events: 8})
	if obs.CurrentRing() == nil {
		t.Fatal("ring not enabled by Setup")
	}
	obs.Point(obs.KindAnswer, "v", 1, 1, 1)
	if err := finish(); err != nil {
		t.Fatal(err)
	}
	b, err := ReadBundle(dir)
	if err != nil {
		t.Fatal(err)
	}
	if b.Reason != "exit" || b.Cmd != "flighttest" {
		t.Errorf("exit bundle manifest: reason=%q cmd=%q", b.Reason, b.Cmd)
	}
}

func TestBundleAttrSectionRoundtrip(t *testing.T) {
	resetGlobal(t)
	clearProviders(t)
	obs.EnableRing(32)
	prev := obs.AttrEnabled()
	obs.SetAttrEnabled(true)
	t.Cleanup(func() {
		obs.SetAttrEnabled(prev)
		obs.ResetRules()
	})
	vec := obs.NewRuleOnlyCounter("test.bundle_counter")
	vec.AddFor(obs.Intern("r(X) -> s(X)"), 9)

	b := Capture("attr-roundtrip")
	if b.Attr == nil {
		t.Fatal("attribution enabled but bundle has no attr section")
	}
	found := false
	for _, s := range b.Sections {
		if s == "attr.json" {
			found = true
		}
	}
	if !found {
		t.Fatalf("manifest sections missing attr.json: %v", b.Sections)
	}

	dir := filepath.Join(t.TempDir(), "bundle")
	if err := b.WriteDir(dir); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBundle(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Attr == nil {
		t.Fatal("attr section lost in dir roundtrip")
	}
	id := -1
	for i, k := range got.Attr.Keys {
		if k == "r(X) -> s(X)" {
			id = i
		}
	}
	if id < 0 {
		t.Fatalf("interned key missing from bundle attr keys: %v", got.Attr.Keys)
	}
	if v := got.Attr.Counter("test.bundle_counter", id); v != 9 {
		t.Fatalf("counter did not roundtrip: got %d, want 9", v)
	}
}

func TestBundleTraceSectionRoundtrip(t *testing.T) {
	resetGlobal(t)
	clearProviders(t)
	obs.EnableRing(32)
	root := obs.StartNote(obs.KindInquiryRun, 0, "random", 10)
	q := root.Child(obs.KindQuestion, 1, 2, 3)
	q.Child(obs.KindSoundQuestion).End(1, 2)
	q.End(2, 40)
	root.End(1, 1)

	b := Capture("trace-roundtrip")
	if b.Trace == nil || b.Trace.Questions != 1 {
		t.Fatalf("trace digest = %+v, want 1 question", b.Trace)
	}
	found := false
	for _, s := range b.Sections {
		if s == "trace.json" {
			found = true
		}
	}
	if !found {
		t.Fatalf("manifest sections missing trace.json: %v", b.Sections)
	}

	dir := filepath.Join(t.TempDir(), "bundle")
	if err := b.WriteDir(dir); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBundle(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Trace == nil || len(got.Trace.Slowest) != 1 {
		t.Fatalf("trace section lost in dir roundtrip: %+v", got.Trace)
	}
	w := got.Trace.Slowest[0]
	if w.Q != 1 || w.Phase != 2 || len(w.Components) != 1 {
		t.Errorf("waterfall did not roundtrip: %+v", w)
	}
}

func TestCaptureOmitsTraceWhenNoRing(t *testing.T) {
	resetGlobal(t)
	clearProviders(t)
	obs.DisableRing()
	b := Capture("no-trace")
	if b.Trace != nil || len(b.Events) != 0 {
		t.Fatal("trace section or events present without a ring")
	}
	for _, s := range b.Sections {
		if s == "trace.json" {
			t.Fatal("manifest lists trace.json without a ring")
		}
	}
}

func TestCaptureOmitsAttrWhenDisabled(t *testing.T) {
	resetGlobal(t)
	clearProviders(t)
	obs.EnableRing(32)
	prev := obs.AttrEnabled()
	obs.SetAttrEnabled(false)
	t.Cleanup(func() { obs.SetAttrEnabled(prev) })

	b := Capture("no-attr")
	if b.Attr != nil {
		t.Fatal("attr section present with attribution disabled")
	}
	for _, s := range b.Sections {
		if s == "attr.json" {
			t.Fatal("manifest lists attr.json with attribution disabled")
		}
	}
}

func TestDumpOnTestFailure(t *testing.T) {
	resetGlobal(t)
	clearProviders(t)
	obs.EnableRing(32)
	obs.Point(obs.KindAnswer, "v", 1, 2, 0)
	root := t.TempDir()
	t.Setenv(TestBundleEnv, root)

	// A passing run (code 0) writes nothing.
	DumpOnTestFailure(0)
	if entries, _ := os.ReadDir(root); len(entries) != 0 {
		t.Fatalf("passing run wrote %d entries", len(entries))
	}

	// A failing run writes one bundle dir named after the test binary.
	DumpOnTestFailure(1)
	entries, err := os.ReadDir(root)
	if err != nil || len(entries) != 1 {
		t.Fatalf("failing run wrote %d entries (err %v), want 1", len(entries), err)
	}
	b, err := ReadBundle(filepath.Join(root, entries[0].Name()))
	if err != nil {
		t.Fatal(err)
	}
	if b.Reason != "test-failure" {
		t.Fatalf("bundle reason = %q, want test-failure", b.Reason)
	}

	// Unset env: no-op even on failure.
	t.Setenv(TestBundleEnv, "")
	other := t.TempDir()
	DumpOnTestFailure(1)
	if entries, _ := os.ReadDir(other); len(entries) != 0 {
		t.Fatal("bundle written with TestBundleEnv unset")
	}
}

// legacySched is the worker-lane section bundles carried while the lane
// recorder existed, as its writer emitted it.
const legacySched = `{"enabled": true, "fanouts_total": 1, "open_fanouts": 0,
  "aborted_fanouts": 0, "intervals_total": 1, "intervals_retained": 1,
  "labels": [{"label": "core.pi", "fanouts": 1, "tasks": 1, "wall_us": 40,
    "top_wall_us": 40, "busy_us": 35, "worker_us": 80, "max_workers": 2}],
  "intervals": [{"fanout": 1, "label": "core.pi", "lane": 0, "task": 0,
    "start_us": 10, "end_us": 45}]}`

// TestBundleSchedAndRuntimeSections checks that a captured bundle carries
// a runtime telemetry reading and the heap/mutex/block profiles, that they
// survive the directory form, and that a bundle written while the lane
// recorder existed — a sched.json file or "sched" key, listed in the
// manifest's sections — still loads in both forms.
func TestBundleSchedAndRuntimeSections(t *testing.T) {
	resetGlobal(t)
	clearProviders(t)
	obs.EnableRing(32)

	b := Capture("runtime-sections")
	if b.Runtime == nil || b.Runtime.Goroutines < 1 {
		t.Fatalf("runtime section = %+v", b.Runtime)
	}
	if b.HeapProfile == "" || b.MutexProfile == "" || b.BlockProfile == "" {
		t.Fatalf("profiles missing: heap %d, mutex %d, block %d bytes",
			len(b.HeapProfile), len(b.MutexProfile), len(b.BlockProfile))
	}
	if !strings.Contains(b.HeapProfile, "heap profile") {
		t.Errorf("heap profile not in debug text form: %.80s", b.HeapProfile)
	}
	for _, want := range []string{"runtime.json", "heap.pprof", "mutex.pprof", "block.pprof"} {
		found := false
		for _, s := range b.Sections {
			if s == want {
				found = true
			}
		}
		if !found {
			t.Errorf("manifest sections missing %s (have %v)", want, b.Sections)
		}
	}

	// Dress the capture up as an older bundle with a lane section.
	b.Sections = append(b.Sections, "sched.json")
	tmp := t.TempDir()
	dir := filepath.Join(tmp, "bundle")
	if err := b.WriteDir(dir); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"runtime.json", "heap.pprof", "mutex.pprof", "block.pprof"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("bundle dir missing %s: %v", name, err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, "sched.json"), []byte(legacySched+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var doc bytes.Buffer
	if err := b.WriteJSON(&doc); err != nil {
		t.Fatal(err)
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(doc.Bytes(), &fields); err != nil {
		t.Fatal(err)
	}
	fields["sched"] = json.RawMessage(legacySched)
	single, err := json.Marshal(fields)
	if err != nil {
		t.Fatal(err)
	}
	file := filepath.Join(tmp, "bundle.json")
	if err := os.WriteFile(file, single, 0o644); err != nil {
		t.Fatal(err)
	}

	for _, path := range []string{dir, file} {
		got, err := ReadBundle(path)
		if err != nil {
			t.Fatalf("ReadBundle(%s) with a sched section: %v", path, err)
		}
		if last := got.Sections[len(got.Sections)-1]; last != "sched.json" {
			t.Errorf("%s: manifest sections end in %q, want sched.json kept", path, last)
		}
		if got.Runtime == nil || got.Runtime.GOMAXPROCS != b.Runtime.GOMAXPROCS {
			t.Errorf("%s: runtime section did not roundtrip: %+v", path, got.Runtime)
		}
		if got.HeapProfile != b.HeapProfile || got.MutexProfile != b.MutexProfile || got.BlockProfile != b.BlockProfile {
			t.Errorf("%s: profiles did not roundtrip", path)
		}
	}
}

// TestDecodeBundleRejectsInconsistentCounts: event counts that disagree
// with the events present — which kbdump would turn into an underflowed
// eviction count — and a foreign schema version are errors, not renders.
func TestDecodeBundleRejectsInconsistentCounts(t *testing.T) {
	doc := func(schema int, total uint64, retained int) string {
		return fmt.Sprintf(`{"schema_version": %d, "reason": "x", "events_total": %d, "events_retained": %d,
			"events": [{"seq": 1, "t_us": 0, "kind": "anomaly"}, {"seq": 2, "t_us": 5, "kind": "anomaly"}],
			"metrics": {"counters": {}, "gauges": {}, "histograms": {}}}`, schema, total, retained)
	}
	if _, err := DecodeBundle(strings.NewReader(doc(BundleSchemaVersion, 7, 2))); err != nil {
		t.Fatalf("consistent bundle rejected: %v", err)
	}
	for _, tc := range []struct {
		doc, want string
	}{
		{doc(BundleSchemaVersion, 1, 2), "events_total 1 is below events_retained 2"},
		{doc(BundleSchemaVersion, 7, 3), "events_retained 3, but 2 events present"},
		{doc(BundleSchemaVersion+1, 7, 2), "schema version"},
	} {
		if _, err := DecodeBundle(strings.NewReader(tc.doc)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("DecodeBundle = %v, want an error containing %q", err, tc.want)
		}
	}
}
