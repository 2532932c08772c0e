package traceview

import (
	"encoding/json"
	"net/http"
	"strconv"

	"kbrepair/internal/obs"
)

// DefaultTracezQuestions is how many slowest questions /tracez shows when
// no ?n= parameter is given.
const DefaultTracezQuestions = 10

// Tracez is the /tracez document: ring occupancy plus the K slowest recent
// question waterfalls, slowest first.
type Tracez struct {
	// Enabled is false when no event ring is installed (-flight-events
	// negative); the other fields are zero then.
	Enabled       bool                `json:"enabled"`
	RecordsTotal  uint64              `json:"records_total"`
	SpansRetained int                 `json:"spans_retained"`
	Questions     int                 `json:"questions"`
	Slowest       []QuestionWaterfall `json:"slowest,omitempty"`
}

// ReadTracez assembles the /tracez document from the closed spans in the
// process-wide event ring, showing the k slowest retained questions.
func ReadTracez(k int) Tracez {
	ring := obs.CurrentRing()
	if ring == nil {
		return Tracez{}
	}
	f := ParseRecords(obs.SpanRecords(ring.Events()))
	ws := f.SlowestQuestions(-1)
	t := Tracez{
		Enabled:       true,
		RecordsTotal:  ring.Total(),
		SpansRetained: f.Spans(),
		Questions:     len(ws),
	}
	if k >= 0 && len(ws) > k {
		ws = ws[:k]
	}
	t.Slowest = ws
	return t
}

// TracezHandler serves the K slowest recent questions with their latency
// breakdowns as JSON (?n= overrides K, default DefaultTracezQuestions).
func TracezHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		k := DefaultTracezQuestions
		if s := r.URL.Query().Get("n"); s != "" {
			v, err := strconv.Atoi(s)
			if err != nil || v < 0 {
				http.Error(w, "tracez: n must be a non-negative integer", http.StatusBadRequest)
				return
			}
			k = v
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		// Past the first byte an encode error cannot be reported over HTTP;
		// the handler serves an in-memory document, so none is expected.
		_ = enc.Encode(ReadTracez(k))
	})
}

// The handler registers itself on the debug mux (like flight's /debugz):
// any binary linking traceview serves /tracez alongside /metrics and
// /statusz.
func init() {
	obs.RegisterDebugHandler("/tracez", TracezHandler())
}
