package inquiry

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"kbrepair/internal/core"
	"kbrepair/internal/obs"
	"kbrepair/internal/obs/flight"
)

// TestDebugzDuringRepair scrapes /debugz from inside the user callback —
// mid-question, the moment a stuck session would be probed — and asserts
// the served bundle carries the ring events of the session so far, the
// pending question (the open question and user_answer spans with their
// phase, fixes, conflicts and delay), the provider-supplied KB digest and
// the journal-so-far.
func TestDebugzDuringRepair(t *testing.T) {
	obs.EnableRing(1024)
	t.Cleanup(obs.DisableRing)
	srv := httptest.NewServer(obs.DebugMux())
	defer srv.Close()

	kb := fig1bKB(t)
	digest := core.DigestKB(kb)
	flight.SetDigestProvider(func() any { return digest })
	t.Cleanup(func() { flight.SetDigestProvider(nil) })

	rec := NewRecordingSession(NewSimulatedUser(3), "random", 3, kb)
	flight.SetJournalProvider(func() any { return rec.Snapshot() })
	t.Cleanup(func() { flight.SetJournalProvider(nil) })

	var mid *flight.Bundle
	var pending Question
	user := FuncUser(func(kb *core.KB, q Question) (core.Fix, error) {
		if mid == nil {
			pending = q
			resp, err := http.Get(srv.URL + "/debugz?reason=test")
			if err != nil {
				t.Errorf("GET /debugz: %v", err)
				return rec.Choose(kb, q)
			}
			defer resp.Body.Close()
			var b flight.Bundle
			if err := json.NewDecoder(resp.Body).Decode(&b); err != nil {
				t.Errorf("debugz mid-repair is not a bundle: %v", err)
				return rec.Choose(kb, q)
			}
			mid = &b
		}
		return rec.Choose(kb, q)
	})

	e := New(kb, Random{}, user, 1, Options{})
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Consistent {
		t.Fatal("repair did not converge")
	}
	if mid == nil {
		t.Fatal("user callback never scraped /debugz — KB was not inconsistent?")
	}

	if mid.Reason != "http:test" {
		t.Errorf("bundle reason = %q, want http:test", mid.Reason)
	}
	type event struct {
		Kind      string `json:"kind"`
		Span      uint64 `json:"span"`
		Parent    uint64 `json:"parent"`
		Open      bool   `json:"open"`
		Q         int    `json:"q"`
		Phase     int    `json:"phase"`
		Conflicts int    `json:"conflicts"`
		Fixes     int    `json:"fixes"`
		DelayUS   *int64 `json:"delay_us"`
	}
	kinds := make(map[string]int)
	open := make(map[string]event)
	for _, raw := range mid.Events {
		var ev event
		if err := json.Unmarshal(raw, &ev); err != nil {
			t.Fatalf("bundle event is not JSON: %v\n%s", err, raw)
		}
		kinds[ev.Kind]++
		if ev.Open {
			open[ev.Kind] = ev
		}
	}
	for _, want := range []string{"inquiry.run", "inquiry.question", "inquiry.user_answer", "conflict.scan"} {
		if kinds[want] == 0 {
			t.Errorf("mid-repair bundle has no %s event (kinds: %v)", want, kinds)
		}
	}
	q, ua := open["inquiry.question"], open["inquiry.user_answer"]
	if q.Span == 0 || q.Q != 1 || q.Phase != pending.Phase || q.Conflicts < 1 {
		t.Errorf("pending question span = %+v, want q 1, phase %d, conflicts > 0", q, pending.Phase)
	}
	if ua.Parent != q.Span || ua.Fixes != len(pending.Fixes) || ua.DelayUS == nil || *ua.DelayUS < 0 {
		t.Errorf("pending user_answer span = %+v, want under span %d with %d fixes and a delay", ua, q.Span, len(pending.Fixes))
	}
	var d core.Digest
	if err := json.Unmarshal(mid.KBDigest, &d); err != nil {
		t.Fatalf("bundle KB digest unreadable: %v (%s)", err, mid.KBDigest)
	}
	if d.Facts != digest.Facts || d.CDDs != digest.CDDs {
		t.Errorf("bundle digest = %+v, want %+v", d, digest)
	}
	var j Journal
	if err := json.Unmarshal(mid.Journal, &j); err != nil {
		t.Fatalf("bundle journal unreadable: %v (%s)", err, mid.Journal)
	}
	if j.Strategy != "random" || j.Seed != 3 || j.Digest == nil {
		t.Errorf("bundle journal header = strategy=%q seed=%d digest=%v", j.Strategy, j.Seed, j.Digest)
	}
	if mid.Goroutines == "" {
		t.Error("bundle has no goroutine stacks")
	}
}
