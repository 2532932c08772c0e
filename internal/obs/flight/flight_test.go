package flight

import (
	"encoding/json"
	"sync"
	"testing"
	"time"

	"kbrepair/internal/obs"
)

// resetGlobal detaches any process-wide event ring after a test so tests
// stay independent.
func resetGlobal(t *testing.T) {
	t.Helper()
	t.Cleanup(obs.DisableRing)
}

// The event ring itself lives in internal/obs; these tests pin the
// behaviour bundles rely on, through obs's exported API.

func TestRecorderRingEviction(t *testing.T) {
	resetGlobal(t)
	r := obs.EnableRing(4)
	for i := 1; i <= 10; i++ {
		obs.Point(obs.KindHomoSearch, "", i)
	}
	if got := r.Total(); got != 10 {
		t.Fatalf("Total() = %d, want 10", got)
	}
	events := r.Events()
	if len(events) != 4 {
		t.Fatalf("retained %d events, want 4", len(events))
	}
	for i, e := range events {
		wantSeq := uint64(7 + i)
		if e.Seq != wantSeq || e.N[0] != int64(wantSeq) {
			t.Errorf("event %d: seq %d, N[0] %d, want %d (oldest first)", i, e.Seq, e.N[0], wantSeq)
		}
	}
	if events[0].StartUS > events[3].StartUS {
		t.Errorf("timestamps not monotone: %d then %d", events[0].StartUS, events[3].StartUS)
	}
}

func TestRecorderPartialRing(t *testing.T) {
	resetGlobal(t)
	r := obs.EnableRing(8)
	obs.Start(obs.KindQuestion, 0, 1, 2, 3).End(4, 120)
	obs.Point(obs.KindAnswer, "v", 5, 6, 1)
	events := r.Events()
	if len(events) != 3 {
		t.Fatalf("retained %d events, want begin mark, close and answer", len(events))
	}
	if !events[0].Open || events[1].Open || events[1].Kind != obs.KindQuestion || events[2].Kind != obs.KindAnswer {
		t.Fatalf("wrong events: %+v", events)
	}
}

func TestEventJSONFieldNames(t *testing.T) {
	e := obs.Event{Seq: 3, Kind: obs.KindChaseRound, Span: 9, Parent: 4, StartUS: 1100, DurUS: 50,
		N: [obs.MaxFields]int64{2, 10, 7, 1, 5}, Set: 5}
	var m map[string]any
	if err := json.Unmarshal(e.AppendJSON(nil, 1000), &m); err != nil {
		t.Fatalf("event JSON invalid: %v\n%s", err, e.AppendJSON(nil, 1000))
	}
	want := map[string]float64{
		"seq": 3, "t_us": 150, "span": 9, "parent": 4, "dur_us": 50,
		"round": 2, "delta": 10, "derived": 7, "deferred": 1, "firings": 5,
	}
	for k, v := range want {
		if got, ok := m[k].(float64); !ok || got != v {
			t.Errorf("field %q = %v, want %v", k, m[k], v)
		}
	}
	if m["kind"] != "chase.round" || m["open"] != nil {
		t.Errorf("kind = %v, open = %v; want a closed chase.round", m["kind"], m["open"])
	}

	// A begin mark: "open", its start time, only the fields known at start.
	mark := obs.Event{Kind: obs.KindChaseRound, Span: 9, StartUS: 1100, N: [obs.MaxFields]int64{2, 10}, Set: 2, Open: true}
	m = nil
	if err := json.Unmarshal(mark.AppendJSON(nil, 1000), &m); err != nil {
		t.Fatal(err)
	}
	if m["open"] != true || m["t_us"] != 100.0 || m["dur_us"] != nil || m["derived"] != nil {
		t.Errorf("begin mark = %v", m)
	}
}

// TestRoundEndStatusJSON pins the abnormal-exit rendering of chase rounds:
// the status note — and that a normal round (empty status) omits the field
// entirely.
func TestRoundEndStatusJSON(t *testing.T) {
	resetGlobal(t)
	r := obs.EnableRing(16)
	obs.Start(obs.KindChaseRound, 0, 3, 4).EndNote("budget", 0, 2, 9)
	obs.Start(obs.KindChaseRound, 0, 1, 2).End(1, 0, 1)
	events := r.Events()
	if len(events) != 4 {
		t.Fatalf("recorded %d events, want two begin marks and two closes", len(events))
	}
	decode := func(e obs.Event) map[string]any {
		var m map[string]any
		if err := json.Unmarshal(e.AppendJSON(nil, r.BaseUS()), &m); err != nil {
			t.Fatalf("event JSON invalid: %v", err)
		}
		return m
	}
	m := decode(events[1])
	for k, v := range map[string]float64{"round": 3, "delta": 4, "derived": 0, "deferred": 2, "firings": 9} {
		if got, ok := m[k].(float64); !ok || got != v {
			t.Errorf("field %q = %v, want %v", k, m[k], v)
		}
	}
	if m["status"] != "budget" {
		t.Errorf("status = %v, want budget", m["status"])
	}
	if _, present := decode(events[3])["status"]; present {
		t.Error("empty status rendered on a normal round end")
	}
}

func TestEventJSONNote(t *testing.T) {
	e := obs.Event{Seq: 1, Kind: obs.KindAnswer, N: [obs.MaxFields]int64{4, 0, 1}, Set: 3, Note: `pa"d` + "\u2028"}
	var m map[string]any
	if err := json.Unmarshal(e.AppendJSON(nil, 0), &m); err != nil {
		t.Fatalf("event JSON invalid: %v\n%s", err, e.AppendJSON(nil, 0))
	}
	if m["value"] != `pa"d`+"\u2028" {
		t.Errorf("note field value = %v, want the quoted original", m["value"])
	}
	if m["null"] != 1.0 || m["span"] != nil || m["dur_us"] != nil {
		t.Errorf("point event = %v, want its fields and no span fields", m)
	}
	// Unset slots are not rendered.
	e.Set = 1
	m = nil
	if err := json.Unmarshal(e.AppendJSON(nil, 0), &m); err != nil {
		t.Fatal(err)
	}
	if _, present := m["arg"]; present {
		t.Error("unset slot rendered")
	}
}

func TestGlobalRecordDisabledAndEnabled(t *testing.T) {
	resetGlobal(t)
	obs.DisableRing()
	obs.Point(obs.KindAnomaly, "x", 1, 2) // must not panic with no ring
	if obs.CurrentRing() != nil {
		t.Fatal("ring installed after DisableRing")
	}
	r := obs.EnableRing(16)
	obs.Point(obs.KindAnomaly, "x", 1, 2)
	obs.Start(obs.KindPickConflict, 0).End()
	if got := r.Total(); got != 3 {
		t.Fatalf("recorded %d events, want point, begin mark, close", got)
	}
	obs.DisableRing()
	obs.Point(obs.KindAnomaly, "x", 1, 2)
	if got := r.Total(); got != 3 {
		t.Fatalf("recorded after DisableRing: total = %d, want 3", got)
	}
}

// TestRecordDisabledZeroAlloc pins the acceptance criterion directly: with
// no ring installed, the instrumentation call sites in the chase and
// inquiry hot paths must not allocate.
func TestRecordDisabledZeroAlloc(t *testing.T) {
	resetGlobal(t)
	obs.DisableRing()
	if n := testing.AllocsPerRun(1000, func() {
		obs.Point(obs.KindHomoSearch, "", 1, 2, 3, 4)
		obs.Point(obs.KindAnomaly, AnomalyNoProgress, 1, 2)
		obs.Start(obs.KindChaseRound, 0, 1, 2).EndNote("budget", 3, 4, 5)
	}); n != 0 {
		t.Fatalf("disabled recording allocates %v allocs/op, want 0", n)
	}
}

// TestRecordEnabledZeroAlloc: the enabled path is a stamped copy into a
// pre-allocated slot — also allocation-free.
func TestRecordEnabledZeroAlloc(t *testing.T) {
	resetGlobal(t)
	obs.EnableRing(64)
	if n := testing.AllocsPerRun(1000, func() {
		obs.Point(obs.KindHomoSearch, "", 1, 2, 3, 4)
	}); n != 0 {
		t.Fatalf("enabled Point allocates %v allocs/op, want 0", n)
	}
}

// TestKindStrings pins the kind names bundle readers match on: kbdump's
// anomaly list and -follow marker, and the capture marker.
func TestKindStrings(t *testing.T) {
	for k, want := range map[obs.Kind]string{
		obs.KindAnomaly:    "anomaly",
		obs.KindBundleDump: "flight.bundle_dump",
		obs.KindQuestion:   "inquiry.question",
		obs.KindChaseRound: "chase.round",
	} {
		if got := k.String(); got != want {
			t.Errorf("kind %d = %q, want %q", k, got, want)
		}
	}
	if got := obs.Kind(200).String(); got != "kind(200)" {
		t.Errorf("unknown kind = %q, want kind(200)", got)
	}
}

func TestResizePreservesHistory(t *testing.T) {
	resetGlobal(t)
	old := obs.EnableRing(8)
	for i := 1; i <= 5; i++ {
		obs.Point(obs.KindHomoSearch, "", i)
	}
	before := old.Events()
	obs.ResizeRing(64)
	r := obs.CurrentRing()
	if r.Capacity() != 64 || r.BaseUS() != old.BaseUS() {
		t.Fatalf("resized ring: capacity %d, base %d (want 64, %d)", r.Capacity(), r.BaseUS(), old.BaseUS())
	}
	if got := r.Total(); got != 5 {
		t.Fatalf("Total() = %d, want 5 (sequence must carry over)", got)
	}
	after := r.Events()
	if len(after) != len(before) {
		t.Fatalf("retained %d events, want %d", len(after), len(before))
	}
	for i := range before {
		if after[i] != before[i] {
			t.Fatalf("event %d changed across resize: %+v vs %+v", i, before[i], after[i])
		}
	}
	// Sequence numbering continues where it left off.
	obs.Point(obs.KindHomoSearch, "", 6)
	events := r.Events()
	if last := events[len(events)-1]; last.Seq != 6 {
		t.Fatalf("post-resize seq = %d, want 6", last.Seq)
	}
}

func TestResizeShrinkDropsOldest(t *testing.T) {
	resetGlobal(t)
	obs.EnableRing(8)
	for i := 1; i <= 8; i++ {
		obs.Point(obs.KindHomoSearch, "", i)
	}
	obs.ResizeRing(3)
	r := obs.CurrentRing()
	events := r.Events()
	if len(events) != 3 {
		t.Fatalf("retained %d events, want 3", len(events))
	}
	for i, e := range events {
		if want := int64(i + 6); e.N[0] != want {
			t.Fatalf("event %d: N[0] = %d, want %d (newest three)", i, e.N[0], want)
		}
	}
	if r.Total() != 8 {
		t.Fatalf("Total() = %d, want 8", r.Total())
	}
	// The shrunk ring is full: the next record evicts the oldest survivor.
	obs.Point(obs.KindHomoSearch, "", 9)
	events = r.Events()
	if len(events) != 3 || events[0].N[0] != 7 || events[2].N[0] != 9 {
		t.Fatalf("ring after post-shrink record: %+v", events)
	}
}

func TestResizeWithoutRecorderIsNoop(t *testing.T) {
	resetGlobal(t)
	obs.DisableRing()
	obs.ResizeRing(128)
	if obs.CurrentRing() != nil {
		t.Fatal("ResizeRing installed a ring where none was active")
	}
}

// TestConcurrentRecordAndCapture hammers the ring from several writer
// goroutines while concurrently capturing bundles — the signal-handler /
// /debugz scenario. Run under -race this is the append-vs-dump race guard;
// it also checks every captured event line is whole (valid JSON) and that
// every capture passes the bundle's own consistency checks.
func TestConcurrentRecordAndCapture(t *testing.T) {
	resetGlobal(t)
	r := obs.EnableRing(256)
	const writers = 4
	const perWriter = 2000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(writers)
	for g := 0; g < writers; g++ {
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				obs.Point(obs.KindParDispatch, "test", g, i)
				obs.Point(obs.KindAnomaly, AnomalyLatencySpike, i, 0)
			}
		}(g)
	}
	var captures int
	var capWG sync.WaitGroup
	capWG.Add(1)
	go func() {
		defer capWG.Done()
		// Capture before checking stop so at least one capture happens even
		// when a single-CPU scheduler runs the writers to completion first.
		for {
			b := Capture("test")
			captures++
			if err := b.validate(); err != nil {
				t.Errorf("capture is inconsistent: %v", err)
				return
			}
			for _, raw := range b.Events {
				var m map[string]any
				if err := json.Unmarshal(raw, &m); err != nil {
					t.Errorf("captured event is torn: %v\n%s", err, raw)
					return
				}
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	wg.Wait()
	close(stop)
	capWG.Wait()
	if captures == 0 {
		t.Fatal("capture goroutine never ran")
	}
	// Each Capture also records a flight.bundle_dump event.
	want := uint64(writers*perWriter*2 + captures)
	if got := r.Total(); got != want {
		t.Fatalf("total events = %d, want %d", got, want)
	}
}

func TestWatchdogNoProgress(t *testing.T) {
	resetGlobal(t)
	r := obs.EnableRing(128)
	SessionBegin()
	ObserveQuestion(1, 10, time.Millisecond)
	for i := 0; i < NoProgressK; i++ {
		ObserveQuestion(1, 10, time.Millisecond) // never below the minimum
	}
	if !hasAnomaly(r, AnomalyNoProgress) {
		t.Fatal("no-progress anomaly not recorded after a stall")
	}

	// A fresh session with strictly decreasing conflicts must stay clean.
	// Fresh ring too: the old one still holds the stall's anomaly.
	r = obs.EnableRing(128)
	SessionBegin()
	for i := 0; i < 3*NoProgressK; i++ {
		ObserveQuestion(1, 100-i, time.Millisecond)
	}
	if hasAnomaly(r, AnomalyNoProgress) {
		t.Fatal("no-progress anomaly on a strictly improving session")
	}
}

func TestWatchdogNoProgressPhaseTransition(t *testing.T) {
	resetGlobal(t)
	r := obs.EnableRing(128)
	SessionBegin()
	// Phase 1 drives the count to 1; phase 2 legitimately starts higher.
	for i := 0; i < 4; i++ {
		ObserveQuestion(1, 4-i, time.Millisecond)
	}
	for i := 0; i < NoProgressK-1; i++ {
		ObserveQuestion(2, 20-i, time.Millisecond)
	}
	if hasAnomaly(r, AnomalyNoProgress) {
		t.Fatal("phase transition misread as a stall")
	}
}

func TestWatchdogLatencySpike(t *testing.T) {
	resetGlobal(t)
	r := obs.EnableRing(128)
	SessionBegin()
	for i := 0; i < SpikeMinSamples; i++ {
		ObserveQuestion(1, 100-i, 2*time.Millisecond)
	}
	if hasAnomaly(r, AnomalyLatencySpike) {
		t.Fatal("spike anomaly on uniform delays")
	}
	// One pathological question: far beyond SpikeFactor × median and the
	// floor.
	ObserveQuestion(1, 50, 2*time.Second)
	if !hasAnomaly(r, AnomalyLatencySpike) {
		t.Fatal("latency spike not detected")
	}
}

func TestWatchdogChaseOverrun(t *testing.T) {
	resetGlobal(t)
	r := obs.EnableRing(128)
	SessionBegin()
	const maxRounds = 10
	for round := 1; round <= 7; round++ {
		ObserveChaseRound(round, maxRounds)
	}
	if hasAnomaly(r, AnomalyChaseOverrun) {
		t.Fatal("overrun flagged below the budget fraction")
	}
	ObserveChaseRound(8, maxRounds) // 80% of 10
	if !hasAnomaly(r, AnomalyChaseOverrun) {
		t.Fatal("overrun not flagged at the budget fraction")
	}
	n := countAnomalies(r, AnomalyChaseOverrun)
	ObserveChaseRound(9, maxRounds)
	if countAnomalies(r, AnomalyChaseOverrun) != n {
		t.Fatal("overrun flagged twice for one run")
	}
	// A new run (round counter restarts) re-arms the detector.
	ObserveChaseRound(1, maxRounds)
	ObserveChaseRound(9, maxRounds)
	if countAnomalies(r, AnomalyChaseOverrun) != n+1 {
		t.Fatal("overrun not re-armed for a new chase run")
	}
}

func hasAnomaly(r *obs.Ring, name string) bool { return countAnomalies(r, name) > 0 }

func countAnomalies(r *obs.Ring, name string) int {
	n := 0
	for _, e := range r.Events() {
		if e.Kind == obs.KindAnomaly && e.Note == name {
			n++
		}
	}
	return n
}

func TestAutosizeCapacityClamps(t *testing.T) {
	cases := []struct{ facts, want int }{
		{0, obs.DefaultRingCapacity},
		{10, obs.DefaultRingCapacity},
		{obs.DefaultRingCapacity, obs.DefaultRingCapacity * 8},
		{1 << 18, MaxAutosizeCapacity},
		{1 << 30, MaxAutosizeCapacity},
	}
	for _, tc := range cases {
		if got := AutosizeCapacity(tc.facts); got != tc.want {
			t.Errorf("AutosizeCapacity(%d) = %d, want %d", tc.facts, got, tc.want)
		}
	}
}

func TestConfigAutosizeRespectsExplicitCapacity(t *testing.T) {
	resetGlobal(t)
	obs.EnableRing(obs.DefaultRingCapacity)
	// Default config (Events == 0): autosize wins.
	Config{}.Autosize(100_000)
	if got, want := obs.CurrentRing().Capacity(), AutosizeCapacity(100_000); got != want {
		t.Fatalf("autosized capacity = %d, want %d", got, want)
	}
	// Explicit -flight-events: autosize must not touch the ring.
	obs.EnableRing(512)
	Config{Events: 512}.Autosize(100_000)
	if got := obs.CurrentRing().Capacity(); got != 512 {
		t.Fatalf("explicit capacity overridden: %d", got)
	}
}
