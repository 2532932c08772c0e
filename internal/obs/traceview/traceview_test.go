package traceview

import (
	"bytes"
	"net/http/httptest"
	"strings"
	"testing"

	"kbrepair/internal/obs"
)

// fixture is a hand-built two-question trace in JSONL form (completion
// order: children end before parents), exercising parentage, orphan
// handling and attr decoding through the same path the CLI uses.
const fixture = `
{"type":"span","name":"conflict.scan","span":3,"parent":2,"start_us":1000,"dur_us":200,"attrs":{"conflicts":4,"naive":true}}
{"type":"span","name":"inquiry.init","span":2,"parent":1,"start_us":1000,"dur_us":400}
{"type":"event","name":"note","start_us":1500,"attrs":{"k":"v"}}
{"type":"span","name":"core.pi_batch","span":6,"parent":5,"start_us":1600,"dur_us":300,"attrs":{"batch":7}}
{"type":"span","name":"inquiry.sound_question","span":5,"parent":4,"start_us":1500,"dur_us":500}
{"type":"span","name":"inquiry.user_answer","span":7,"parent":4,"start_us":2000,"dur_us":100}
{"type":"span","name":"inquiry.question","span":4,"parent":1,"start_us":1450,"dur_us":750,"attrs":{"q":1,"phase":1,"delay_us":550,"conflicts":4,"fixes":3}}
{"type":"span","name":"inquiry.sound_question","span":9,"parent":8,"start_us":2300,"dur_us":200}
{"type":"span","name":"inquiry.question","span":8,"parent":1,"start_us":2250,"dur_us":400,"attrs":{"q":2,"phase":2,"delay_us":220}}
{"type":"span","name":"inquiry.run","span":1,"start_us":900,"dur_us":2000,"attrs":{"strategy":"opti-mcd"}}
{"type":"span","name":"orphan.child","span":99,"parent":50,"start_us":3200,"dur_us":10}
`

func parseFixture(t *testing.T) *Forest {
	t.Helper()
	f, err := Parse(strings.NewReader(fixture))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return f
}

func TestParseForestShape(t *testing.T) {
	f := parseFixture(t)
	if got := f.Spans(); got != 10 {
		t.Fatalf("Spans = %d, want 10", got)
	}
	// The orphan (parent 50 never completed) must surface as a root, not
	// vanish.
	if len(f.Roots) != 2 {
		t.Fatalf("roots = %d, want 2 (run + orphan)", len(f.Roots))
	}
	run := f.Roots[0]
	if run.Name != "inquiry.run" {
		t.Fatalf("first root = %s, want inquiry.run", run.Name)
	}
	if f.Roots[1].Name != "orphan.child" {
		t.Errorf("second root = %s, want orphan.child", f.Roots[1].Name)
	}
	var names []string
	for _, c := range run.Child {
		names = append(names, c.Name)
	}
	want := "inquiry.init,inquiry.question,inquiry.question"
	if got := strings.Join(names, ","); got != want {
		t.Errorf("run children = %s, want %s", got, want)
	}
	if len(f.Events) != 1 || f.Events[0].Name != "note" {
		t.Errorf("events = %v", f.Events)
	}
}

func TestWaterfallSumsToTotal(t *testing.T) {
	f := parseFixture(t)
	ws := f.Waterfalls()
	if len(ws) != 2 {
		t.Fatalf("waterfalls = %d, want 2", len(ws))
	}
	w := ws[0]
	if w.Q != 1 || w.Phase != 1 || w.TotalUS != 750 || w.EngineDelayUS != 550 {
		t.Errorf("waterfall[0] header = %+v", w)
	}
	var sum int64
	for _, c := range w.Components {
		sum += c.DurUS
	}
	// The acceptance invariant: components + unattributed == total.
	if sum+w.UnattributedUS != w.TotalUS {
		t.Errorf("components %d + unattributed %d != total %d", sum, w.UnattributedUS, w.TotalUS)
	}
	if w.UnattributedUS != 750-500-100 {
		t.Errorf("unattributed = %d, want 150", w.UnattributedUS)
	}
	if len(w.Components) != 2 ||
		w.Components[0].Name != "inquiry.sound_question" ||
		w.Components[1].Name != "inquiry.user_answer" {
		t.Errorf("components = %+v", w.Components)
	}
}

func TestAggregateSelfTime(t *testing.T) {
	f := parseFixture(t)
	stats := f.Aggregate()
	byName := make(map[string]NameStat)
	for _, s := range stats {
		byName[s.Name] = s
	}
	// sound_question: totals 500+200, self excludes the 300us pi_batch.
	sq := byName["inquiry.sound_question"]
	if sq.Count != 2 || sq.TotalUS != 700 || sq.SelfUS != 400 || sq.MaxUS != 500 {
		t.Errorf("sound_question stat = %+v", sq)
	}
	run := byName["inquiry.run"]
	if run.SelfUS != 2000-400-750-400 {
		t.Errorf("run self = %d, want 450", run.SelfUS)
	}
}

func TestCriticalPath(t *testing.T) {
	f := parseFixture(t)
	var names []string
	for _, s := range f.CriticalPath() {
		names = append(names, s.Name)
	}
	want := "inquiry.run,inquiry.question,inquiry.sound_question,core.pi_batch"
	if got := strings.Join(names, ","); got != want {
		t.Errorf("critical path = %s, want %s", got, want)
	}
}

func TestSlowestQuestions(t *testing.T) {
	f := parseFixture(t)
	ws := f.SlowestQuestions(1)
	if len(ws) != 1 || ws[0].Q != 1 {
		t.Fatalf("slowest = %+v, want question 1 (750us)", ws)
	}
}

func TestWriteChromeValidates(t *testing.T) {
	f := parseFixture(t)
	var buf bytes.Buffer
	if err := WriteChrome(&buf, f); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	n, err := ValidateChrome(buf.Bytes())
	if err != nil {
		t.Fatalf("ValidateChrome: %v", err)
	}
	if n != 11 { // 10 spans + 1 event
		t.Errorf("events = %d, want 11", n)
	}
}

func TestParseMalformedLine(t *testing.T) {
	_, err := Parse(strings.NewReader("{\"type\":\"span\"}\nnot json\n"))
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("err = %v, want line-2 parse error", err)
	}
}

// TestWriteChromeNamesUnnamedRecords is the regression test for a
// FuzzTraceParse finding: a span or event without a name parsed fine but
// exported as a Chrome entry that ValidateChrome (and kbtrace's -chrome
// self-check) rejected.
func TestWriteChromeNamesUnnamedRecords(t *testing.T) {
	f, err := Parse(strings.NewReader("{\"type\":\"span\",\"span\":1}\n{\"type\":\"event\"}\n"))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteChrome(&buf, f); err != nil {
		t.Fatal(err)
	}
	if n, err := ValidateChrome(buf.Bytes()); err != nil || n != 2 {
		t.Fatalf("ValidateChrome = %d, %v; want 2 entries accepted", n, err)
	}
	if got := strings.Count(buf.String(), `"name": "(unnamed)"`); got != 2 {
		t.Errorf("%d entries named (unnamed), want 2:\n%s", got, buf.String())
	}
}

func TestRingRoundTrip(t *testing.T) {
	// Records straight from the event ring carry int64 attrs (no JSON round
	// trip); the waterfall reader must decode them identically. Begin marks
	// and point events in the ring are not spans and must not show up.
	ring := obs.EnableRing(64)
	t.Cleanup(obs.DisableRing)
	root := obs.StartNote(obs.KindInquiryRun, 0, "random", 10)
	q := root.Child(obs.KindQuestion, 1, 2, 5)
	c := q.Child(obs.KindConflictScan, 3, 1)
	obs.Point(obs.KindHomoSearch, "", 2, 1, 1, 1)
	c.End(4)
	q.End(2, 30)
	root.End(1, 1)
	f := ParseRecords(obs.SpanRecords(ring.Events()))
	if f.Spans() != 3 || len(f.Events) != 0 {
		t.Fatalf("forest holds %d spans and %d events, want 3 and 0", f.Spans(), len(f.Events))
	}
	ws := f.Waterfalls()
	if len(ws) != 1 || ws[0].Q != 1 || ws[0].Phase != 2 {
		t.Fatalf("waterfalls = %+v", ws)
	}
	if len(ws[0].Components) != 1 || ws[0].Components[0].Name != "conflict.scan" {
		t.Errorf("components = %+v", ws[0].Components)
	}
}

func TestTracezHandler(t *testing.T) {
	// Without a ring the endpoint reports disabled rather than erroring.
	obs.DisableRing()
	rec := httptest.NewRecorder()
	TracezHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/tracez", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), `"enabled": false`) {
		t.Fatalf("disabled tracez: code=%d body=%s", rec.Code, rec.Body.String())
	}

	obs.EnableRing(64)
	defer obs.DisableRing()
	root := obs.StartNote(obs.KindInquiryRun, 0, "random")
	for i := 1; i <= 3; i++ {
		q := root.Child(obs.KindQuestion, i)
		q.End()
	}
	root.End()

	rec = httptest.NewRecorder()
	TracezHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/tracez?n=2", nil))
	if rec.Code != 200 {
		t.Fatalf("code = %d", rec.Code)
	}
	body := rec.Body.String()
	if !strings.Contains(body, `"questions": 3`) {
		t.Errorf("missing question count: %s", body)
	}
	if got := strings.Count(body, `"total_us"`); got != 2 {
		t.Errorf("slowest entries = %d, want 2 (n=2): %s", got, body)
	}

	rec = httptest.NewRecorder()
	TracezHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/tracez?n=-1", nil))
	if rec.Code != 400 {
		t.Errorf("bad n: code = %d, want 400", rec.Code)
	}
}

func TestValidateChromeAcceptsMetadataPhase(t *testing.T) {
	ok := `{"traceEvents":[{"name":"thread_name","ph":"M","pid":1,"tid":100}]}`
	if n, err := ValidateChrome([]byte(ok)); err != nil || n != 1 {
		t.Fatalf("metadata record rejected: n=%d err=%v", n, err)
	}
	bad := `{"traceEvents":[{"name":"x","ph":"Q","pid":1,"tid":1}]}`
	if _, err := ValidateChrome([]byte(bad)); err == nil {
		t.Fatal("unsupported phase accepted")
	}
}
