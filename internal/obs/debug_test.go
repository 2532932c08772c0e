package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// scrape GETs a URL and returns the body, failing the test on any error.
func scrape(t *testing.T, url string) (string, *http.Response) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading %s: %v", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d\n%s", url, resp.StatusCode, body)
	}
	return string(body), resp
}

// TestDebugMuxMetricsEndpoint scrapes /metrics over real HTTP and parses
// the Prometheus text back — the end-to-end exposition test, Go runtime
// histograms included.
func TestDebugMuxMetricsEndpoint(t *testing.T) {
	NewCounter("debugtest.hits").Add(3)
	srv := httptest.NewServer(DebugMux())
	defer srv.Close()

	body, resp := scrape(t, srv.URL+"/metrics")
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q, want text/plain", ct)
	}
	samples, types := parsePrometheus(t, body)
	got := samples["kbrepair_debugtest_hits_total"]
	if len(got) != 1 || got[0].val < 3 {
		t.Errorf("scraped counter = %+v, want >= 3", got)
	}
	if types["kbrepair_debugtest_hits_total"] != "counter" {
		t.Errorf("TYPE = %q", types["kbrepair_debugtest_hits_total"])
	}
	for _, h := range []string{"kbrepair_runtime_gc_pauses_seconds", "kbrepair_runtime_sched_latencies_seconds"} {
		if types[h] != "histogram" {
			t.Errorf("runtime histogram %s: TYPE = %q, want histogram", h, types[h])
		}
	}
}

// TestDebugMuxStatuszEndpoint scrapes /statusz and checks the promoted
// gauge fields round-trip.
func TestDebugMuxStatuszEndpoint(t *testing.T) {
	NewGauge(StatusPhase).Set(2)
	NewGauge(StatusConflictsRemaining).Set(9)
	NewGauge(StatusQuestionsAsked).Set(4)
	defer func() {
		NewGauge(StatusPhase).Set(0)
		NewGauge(StatusConflictsRemaining).Set(0)
		NewGauge(StatusQuestionsAsked).Set(0)
	}()
	srv := httptest.NewServer(DebugMux())
	defer srv.Close()

	body, resp := scrape(t, srv.URL+"/statusz")
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q, want application/json", ct)
	}
	var st Status
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("statusz is not valid JSON: %v\n%s", err, body)
	}
	if st.Phase != 2 || st.ConflictsRemaining != 9 || st.QuestionsAsked != 4 {
		t.Errorf("status = %+v, want phase 2, conflicts 9, questions 4", st)
	}
	if st.UptimeSeconds <= 0 {
		t.Errorf("uptime = %v, want > 0", st.UptimeSeconds)
	}
	if st.Gauges[StatusPhase] != 2 {
		t.Errorf("gauge map missing %s: %+v", StatusPhase, st.Gauges)
	}
}

// TestServeDebugBoundAddress checks ServeDebug on an ephemeral port
// returns a usable address (the satellite fix: callers and tests can
// scrape without knowing the port in advance).
func TestServeDebugBoundAddress(t *testing.T) {
	addr, err := ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if strings.HasSuffix(addr, ":0") {
		t.Fatalf("ServeDebug returned unresolved address %q", addr)
	}
	body, _ := scrape(t, "http://"+addr+"/statusz")
	if !strings.Contains(body, "uptime_seconds") {
		t.Errorf("statusz body missing uptime_seconds:\n%s", body)
	}
	if body, _ := scrape(t, "http://"+addr+"/debug/vars"); !strings.Contains(body, "kbrepair") {
		t.Errorf("expvar missing kbrepair var:\n%s", body)
	}
}

// TestServeDebugBadAddress checks the fail-fast listen contract.
func TestServeDebugBadAddress(t *testing.T) {
	if _, err := ServeDebug("256.0.0.1:99999"); err == nil {
		t.Fatal("ServeDebug on a bogus address succeeded")
	}
}
