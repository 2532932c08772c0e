package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"kbrepair/internal/obs"
	"kbrepair/internal/obs/flight"
)

func TestNormalizeDebugURL(t *testing.T) {
	cases := []struct{ in, want string }{
		{"localhost:6060", "http://localhost:6060/debugz"},
		{"http://localhost:6060", "http://localhost:6060/debugz"},
		{"http://localhost:6060/", "http://localhost:6060/debugz"},
		{"http://localhost:6060/debugz", "http://localhost:6060/debugz"},
		{"http://localhost:6060/metrics", "http://localhost:6060/debugz"},
	}
	for _, tc := range cases {
		if got := normalizeDebugURL(tc.in); got != tc.want {
			t.Errorf("normalizeDebugURL(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

// TestRunFollow polls a live debug mux twice: events recorded before the
// first poll print once, events recorded between polls print on the second,
// and anomalies carry the '!' marker. A span open at the first poll shows
// as its begin mark; its close arrives with the second.
func TestRunFollow(t *testing.T) {
	t.Cleanup(obs.DisableRing)
	obs.EnableRing(64)
	round := obs.Start(obs.KindChaseRound, 0, 1, 10)
	obs.Point(obs.KindAnomaly, "test_anomaly", 42, 10)

	srv := httptest.NewServer(obs.DebugMux())
	defer srv.Close()

	// Close the round after the first poll completes; a second poll must
	// pick up exactly the new event. The race is benign: the ring is
	// appended to between polls, just as in a live process.
	done := make(chan struct{})
	go func() {
		time.Sleep(20 * time.Millisecond)
		round.End(5, 0, 2)
		close(done)
	}()

	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	if err := runFollow(w, srv.URL, 50*time.Millisecond, 2); err != nil {
		t.Fatalf("runFollow: %v", err)
	}
	<-done
	out := buf.String()
	for _, want := range []string{
		"-- following",
		"open=true",    // the round's begin mark
		"! #",          // anomaly marker
		"test_anomaly", // anomaly name in the payload
		"firings=2",    // the round's close, recorded between polls
	} {
		if !strings.Contains(out, want) {
			t.Errorf("follow output missing %q:\n%s", want, out)
		}
	}
	if n := strings.Count(out, "open=true"); n != 1 {
		t.Errorf("begin mark printed %d times, want once:\n%s", n, out)
	}
}

// TestRunFollowRejectsBadBundles: a /debugz document goes through the same
// checks as a bundle file — a foreign schema version and a malformed
// histogram are errors, not a stream of nonsense.
func TestRunFollowRejectsBadBundles(t *testing.T) {
	metrics := `{"counters": {}, "gauges": {}, "histograms": {}}`
	for _, tc := range []struct {
		name, doc, want string
	}{
		{"schema", `{"schema_version": 99, "reason": "x", "events": [], "metrics": ` + metrics + `}`, "schema version 99"},
		{"histogram", `{"schema_version": 1, "reason": "x", "events": [], "metrics": {"counters": {}, "gauges": {},
			"histograms": {"x.seconds": ` + malformedHist + `}}}`, "x.seconds"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
				fmt.Fprint(w, tc.doc)
			}))
			defer srv.Close()
			var buf bytes.Buffer
			err := runFollow(bufio.NewWriter(&buf), srv.URL, time.Millisecond, 1)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("runFollow = %v, want an error containing %q", err, tc.want)
			}
		})
	}
}

func TestRunFollowUnreachable(t *testing.T) {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	err := runFollow(w, "127.0.0.1:1", time.Millisecond, 1)
	if err == nil || !strings.Contains(err.Error(), "following") {
		t.Fatalf("expected a first-poll fetch error, got %v", err)
	}
}

// TestProfileReport runs the -profile report against a bundle captured with
// attribution on: the table must surface the interned body with its counts.
func TestProfileReport(t *testing.T) {
	t.Cleanup(obs.DisableRing)
	obs.EnableRing(16)
	prev := obs.AttrEnabled()
	obs.SetAttrEnabled(true)
	t.Cleanup(func() {
		obs.SetAttrEnabled(prev)
		obs.ResetRules()
	})
	id := obs.Intern("emp(X, D), dept(D)")
	obs.NewRuleCounter(obs.FamSearches).AddFor(id, 4)
	obs.NewRuleCounter(obs.FamNodes).AddFor(id, 123)

	dir := filepath.Join(t.TempDir(), "bundle")
	if err := flight.Capture("profile-test").WriteDir(dir); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := run(&buf, dir, false, 0, false, false, true, 10); err != nil {
		t.Fatalf("run: %v", err)
	}
	out := buf.String()
	for _, want := range []string{"== Profile ==", "emp(X, D), dept(D)", "123"} {
		if !strings.Contains(out, want) {
			t.Errorf("profile output missing %q:\n%s", want, out)
		}
	}
}

// TestProfileReportNoAttr: a bundle without an attribution snapshot says so
// instead of printing an empty table.
func TestProfileReportNoAttr(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, filepath.Join("testdata", "fixture-bundle"), false, 0, false, false, true, 10); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(buf.String(), "no attribution snapshot") {
		t.Errorf("missing no-attr notice:\n%s", buf.String())
	}
}
