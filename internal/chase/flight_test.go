package chase

import (
	"encoding/json"
	"errors"
	"testing"
	"time"

	"kbrepair/internal/obs"
	"kbrepair/internal/obs/flight"
)

// roundEvents extracts the chase.round begin marks and closes from a ring
// and returns the counts plus the final close.
func roundEvents(t *testing.T, ring *obs.Ring) (starts, ends int, last obs.Event) {
	t.Helper()
	for _, e := range ring.Events() {
		if e.Kind != obs.KindChaseRound {
			continue
		}
		if e.Open {
			starts++
		} else {
			ends++
			last = e
		}
	}
	return starts, ends, last
}

// TestChaseRoundEventsBalanced asserts that every chase.round span opened
// is closed exactly once on *every* exit path — normal completion,
// round-budget exceeded, derivation budget exceeded and ⊥-abort — with the
// early exits carrying their status note.
func TestChaseRoundEventsBalanced(t *testing.T) {
	s, tgds := deepChainKB(t, 6, 2)
	t.Cleanup(obs.DisableRing)

	t.Run("normal", func(t *testing.T) {
		ring := obs.EnableRing(256)
		if _, err := Run(s, tgds, Options{}); err != nil {
			t.Fatal(err)
		}
		starts, ends, last := roundEvents(t, ring)
		if starts == 0 || starts != ends {
			t.Fatalf("round events unbalanced: %d starts, %d ends", starts, ends)
		}
		if last.Note != "" {
			t.Errorf("normal completion carries status %q, want none", last.Note)
		}
	})

	t.Run("rounds-exceeded", func(t *testing.T) {
		ring := obs.EnableRing(256)
		_, err := Run(s, tgds, Options{MaxRounds: 2})
		if !errors.Is(err, ErrBudget) {
			t.Fatalf("err = %v, want ErrBudget", err)
		}
		starts, ends, last := roundEvents(t, ring)
		if starts != 3 || ends != 3 {
			t.Fatalf("round events unbalanced: %d starts, %d ends (want 3 each)", starts, ends)
		}
		if last.Note != RoundStatusBudget {
			t.Errorf("final round status = %q, want %q", last.Note, RoundStatusBudget)
		}
	})

	t.Run("derived-budget", func(t *testing.T) {
		ring := obs.EnableRing(256)
		_, err := Run(s, tgds, Options{MaxDerived: 1})
		if !errors.Is(err, ErrBudget) {
			t.Fatalf("err = %v, want ErrBudget", err)
		}
		starts, ends, last := roundEvents(t, ring)
		if starts == 0 || starts != ends {
			t.Fatalf("round events unbalanced: %d starts, %d ends", starts, ends)
		}
		if last.Note != RoundStatusBudget {
			t.Errorf("final round status = %q, want %q", last.Note, RoundStatusBudget)
		}
	})

	t.Run("aborted", func(t *testing.T) {
		ring := obs.EnableRing(256)
		res, err := run(s, tgds, Options{}, "p3")
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Store.ByPredicate("p3")) == 0 {
			t.Fatal("abort predicate never derived; workload too weak")
		}
		starts, ends, last := roundEvents(t, ring)
		if starts == 0 || starts != ends {
			t.Fatalf("round events unbalanced: %d starts, %d ends", starts, ends)
		}
		if last.Note != RoundStatusAborted {
			t.Errorf("final round status = %q, want %q", last.Note, RoundStatusAborted)
		}
	})
}

// TestBundleShowsOpenChaseRound captures a bundle while a chase round is
// still running and requires the bundle to show that round: its begin
// mark, with round number and delta, and no close. The capture runs from
// the tracer clock, which the chase reads before recording a round's
// close — the one point inside an open round a test can reach.
func TestBundleShowsOpenChaseRound(t *testing.T) {
	s, tgds := deepChainKB(t, 4, 2)
	ring := obs.EnableRing(256)
	t.Cleanup(obs.DisableRing)
	tr := obs.DefaultTracer()
	var b *flight.Bundle
	tr.SetNow(func() time.Time {
		if b == nil {
			if starts, _, _ := roundEvents(t, ring); starts > 0 {
				b = flight.Capture("mid-round")
			}
		}
		return time.Now()
	})
	t.Cleanup(func() { tr.SetNow(nil) })
	if _, err := Run(s, tgds, Options{}); err != nil {
		t.Fatal(err)
	}
	if b == nil {
		t.Fatal("no capture happened inside a round")
	}

	type line struct {
		Kind  string `json:"kind"`
		Span  uint64 `json:"span"`
		Open  bool   `json:"open"`
		Round *int   `json:"round"`
		Delta *int   `json:"delta"`
	}
	var open []line
	closed := make(map[uint64]bool)
	for _, raw := range b.Events {
		var l line
		if err := json.Unmarshal(raw, &l); err != nil {
			t.Fatalf("bundle event is not JSON: %v\n%s", err, raw)
		}
		if l.Kind != "chase.round" {
			continue
		}
		if l.Open {
			open = append(open, l)
		} else {
			closed[l.Span] = true
		}
	}
	if len(open) != 1 || closed[open[0].Span] {
		t.Fatalf("bundle shows %d open rounds (closed: %v), want round 1 open", len(open), closed)
	}
	if r := open[0]; r.Round == nil || *r.Round != 1 || r.Delta == nil || *r.Delta != 2 {
		t.Errorf("open round = %+v, want round 1 over a delta of 2 facts", r)
	}
}

// TestChaseRunsInline asserts the chase never fans out over the worker
// pool: even with several workers and a multi-rule, multi-trigger round,
// a run records no par.dispatch event.
func TestChaseRunsInline(t *testing.T) {
	withWorkers(t, 4)
	ring := obs.EnableRing(256)
	t.Cleanup(obs.DisableRing)
	s, tgds := deepChainKB(t, 3, 4)
	res, err := Run(s, tgds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tgds) < 2 || len(res.Prov) < 2 {
		t.Fatalf("weak workload: %d rules, %d derived", len(tgds), len(res.Prov))
	}
	for _, e := range ring.Events() {
		if e.Kind == obs.KindParDispatch {
			t.Fatal("the chase must run inline, but a par.dispatch event was recorded")
		}
	}
}
