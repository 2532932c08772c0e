package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"kbrepair/internal/obs"
	"kbrepair/internal/obs/flight"
)

// TestFixtureBundleGolden renders the committed fixture bundle and compares
// the report byte-for-byte against the golden file. The fixture is
// hand-authored (fixed timestamps, env stamp, seqs) so the output is fully
// deterministic. Regenerate with:
//
//	KBDUMP_UPDATE_GOLDEN=1 go test ./cmd/kbdump/
func TestFixtureBundleGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, filepath.Join("testdata", "fixture-bundle"), true, 0, true, false, false, 0); err != nil {
		t.Fatalf("run: %v", err)
	}
	golden := filepath.Join("testdata", "fixture.golden")
	if os.Getenv("KBDUMP_UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatalf("update golden: %v", err)
		}
		t.Logf("wrote %s (%d bytes)", golden, buf.Len())
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("report does not match golden file.\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
}

// TestFixtureBundleTail exercises the -tail elision path on the same fixture.
func TestFixtureBundleTail(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, filepath.Join("testdata", "fixture-bundle"), true, 2, false, false, false, 0); err != nil {
		t.Fatalf("run: %v", err)
	}
	out := buf.String()
	for _, want := range []string{
		"6 earlier events elided (-tail)",
		"inquiry.answer",
	} {
		if !bytes.Contains([]byte(out), []byte(want)) {
			t.Errorf("tail output missing %q:\n%s", want, out)
		}
	}
	if bytes.Contains([]byte(out), []byte("chase.round_start")) {
		t.Errorf("tail output should have elided early chase events:\n%s", out)
	}
}

// TestFixtureBundleDiffSelf diffs the fixture against itself: provenance
// identical, every count row unchanged (no '*' markers).
func TestFixtureBundleDiffSelf(t *testing.T) {
	p := filepath.Join("testdata", "fixture-bundle")
	var buf bytes.Buffer
	if err := runDiff(&buf, p, p); err != nil {
		t.Fatalf("runDiff: %v", err)
	}
	out := buf.String()
	if !bytes.Contains([]byte(out), []byte("identical")) {
		t.Errorf("self-diff should report identical KB digests:\n%s", out)
	}
	if bytes.Contains([]byte(out), []byte("* ")) {
		t.Errorf("self-diff should have no changed rows:\n%s", out)
	}
}

// TestLiveBundleSchedSections captures a live bundle, adds the sched.json
// lane section that bundles carried while the lane recorder existed, and
// checks that the report still renders its runtime and profile-size
// sections.
func TestLiveBundleSchedSections(t *testing.T) {
	obs.EnableRing(32)
	defer obs.DisableRing()
	b := flight.Capture("kbdump-test")
	b.Sections = append(b.Sections, "sched.json")
	dir := filepath.Join(t.TempDir(), "bundle")
	if err := b.WriteDir(dir); err != nil {
		t.Fatal(err)
	}
	sched := `{"enabled": true, "fanouts_total": 1, "labels": [{"label": "chase.spec", "fanouts": 1, "tasks": 3}]}`
	if err := os.WriteFile(filepath.Join(dir, "sched.json"), []byte(sched), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := run(&buf, dir, true, 0, true, false, true, 0); err != nil {
		t.Fatalf("run: %v", err)
	}
	out := buf.String()
	for _, want := range []string{
		"== Runtime ==",
		"goroutines=",
		"profiles: heap ",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

// malformedHist is a histogram snapshot with two bucket counts for zero
// bounds: the quantile code indexed past the bounds on it and panicked.
const malformedHist = `{"count":3,"sum":3,"min":1,"max":1,"bounds":[],"counts":[0,3]}`

// fixtureWith copies the fixture bundle to a temp directory and writes
// name there with the given content.
func fixtureWith(t *testing.T, name, content string) string {
	t.Helper()
	src := filepath.Join("testdata", "fixture-bundle")
	dir := filepath.Join(t.TempDir(), "bundle")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestMalformedMetricsHistogram: kbdump -metrics on a bundle whose
// metrics.json carries a malformed histogram fails with an error.
func TestMalformedMetricsHistogram(t *testing.T) {
	dir := fixtureWith(t, "metrics.json",
		`{"counters": {}, "gauges": {}, "histograms": {"x.seconds": `+malformedHist+`}}`)
	var buf bytes.Buffer
	err := run(&buf, dir, true, 0, true, false, false, 0)
	if err == nil || !strings.Contains(err.Error(), "x.seconds") {
		t.Fatalf("run = %v, want an error naming the histogram", err)
	}
}

// TestMalformedProfileHistogram: kbdump -profile on a bundle whose
// attr.json carries a malformed per-rule histogram fails with an error.
func TestMalformedProfileHistogram(t *testing.T) {
	dir := fixtureWith(t, "attr.json",
		`{"keys": ["p(X)"], "counters": {"homo.searches": [1]}, "histograms": {"homo.nodes_per_search": [`+malformedHist+`]}}`)
	var buf bytes.Buffer
	err := run(&buf, dir, false, 0, false, false, true, 0)
	if err == nil || !strings.Contains(err.Error(), "homo.nodes_per_search") {
		t.Fatalf("run = %v, want an error naming the histogram", err)
	}
}

// TestEventCountsMustAgree reproduces the underflowed eviction count: a
// manifest claiming fewer recorded events than it retains (or a retained
// count that disagrees with events.jsonl) is refused, not rendered as
// "18446744073709551613 evicted by the ring".
func TestEventCountsMustAgree(t *testing.T) {
	manifest, err := os.ReadFile(filepath.Join("testdata", "fixture-bundle", "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ from, to, want string }{
		{`"events_total": 12`, `"events_total": 5`, "events_total 5 is below events_retained 8"},
		{`"events_retained": 8`, `"events_retained": 9`, "events_retained 9, but 8 events present"},
	} {
		if !strings.Contains(string(manifest), tc.from) {
			t.Fatalf("fixture manifest lacks %s", tc.from)
		}
		dir := fixtureWith(t, "manifest.json", strings.Replace(string(manifest), tc.from, tc.to, 1))
		var buf bytes.Buffer
		err := run(&buf, dir, true, 0, false, false, false, 0)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run = %v, want an error containing %q", err, tc.want)
		}
	}
}
