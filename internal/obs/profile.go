package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
)

// Metric names the profile reads back. The homomorphism search records
// under these names; Rows, the /profilez handler and the rule-labelled
// Prometheus section read them, so — like the Status* gauges — the names
// are the contract between the recording and reporting layers.
const (
	// FamSearches counts homomorphism plan executions per body.
	FamSearches = "homo.searches"
	// FamNodes counts backtracking nodes expanded per body — the paper's
	// tree-size cost model, and the metric bench-check gates.
	FamNodes = "homo.backtrack_nodes"
	// FamProbes counts index probes per body.
	FamProbes = "homo.index_probes"
	// FamMatches counts matches found per body.
	FamMatches = "homo.matches"
	// FamNodesPerSearch is a SizeBuckets histogram of nodes per search.
	FamNodesPerSearch = "homo.nodes_per_search"
	// FamProbesPerSearch is a SizeBuckets histogram of probes per search.
	FamProbesPerSearch = "homo.probes_per_search"
	// FamSearchSeconds is a latency histogram of search wall time (empty
	// unless obs timing is enabled alongside attribution).
	FamSearchSeconds = "homo.search_seconds"
)

// Row is the per-body line of the plan-quality profile: the homo.* family
// values for one interned body key, plus the derived medians and time
// share. Rows marshal into the BenchReport profile section, render as the
// kbdump -profile table, and serve as the /profilez payload.
type Row struct {
	Body string `json:"body"`
	// Mode and Order describe the compiled join plan this body ran with
	// (kernel mode and the chosen atom/variable order). obs cannot import
	// internal/homo, so the fields stay empty here and are joined in by the
	// profile assemblers (exp.BuildProfile, kbdump) from homo.PlanInfoFor.
	Mode         string  `json:"mode,omitempty"`
	Order        string  `json:"order,omitempty"`
	Searches     int64   `json:"searches"`
	Nodes        int64   `json:"backtrack_nodes"`
	MedianNodes  float64 `json:"median_nodes"`
	Probes       int64   `json:"index_probes"`
	MedianProbes float64 `json:"median_probes"`
	Matches      int64   `json:"matches"`
	// Seconds is total search wall time; zero when obs timing was off.
	Seconds float64 `json:"seconds"`
	// TimeShare is Seconds over the sum across all rows (0 when no timing).
	TimeShare float64 `json:"time_share"`
}

// Rows derives one Row per key with at least one recorded search, sorted
// most-expensive-first: Seconds descending, then Nodes descending, then
// Body ascending. With obs timing off every Seconds is zero and the order
// falls through to the deterministic node counts, which is what makes the
// profile byte-identical at any worker count.
func Rows(s *RuleSnapshot) []Row {
	if s == nil {
		return nil
	}
	var rows []Row
	var totalSeconds float64
	for i, key := range s.Keys {
		searches := s.Counter(FamSearches, i)
		if searches == 0 {
			continue
		}
		r := Row{
			Body:     key,
			Searches: searches,
			Nodes:    s.Counter(FamNodes, i),
			Probes:   s.Counter(FamProbes, i),
			Matches:  s.Counter(FamMatches, i),
		}
		if h := s.Histogram(FamNodesPerSearch, i); h.Count > 0 {
			r.MedianNodes = h.Summary().Median
		}
		if h := s.Histogram(FamProbesPerSearch, i); h.Count > 0 {
			r.MedianProbes = h.Summary().Median
		}
		if h := s.Histogram(FamSearchSeconds, i); h.Count > 0 {
			r.Seconds = h.Sum
		}
		totalSeconds += r.Seconds
		rows = append(rows, r)
	}
	if totalSeconds > 0 {
		for i := range rows {
			rows[i].TimeShare = rows[i].Seconds / totalSeconds
		}
	}
	sort.Slice(rows, func(a, b int) bool {
		ra, rb := rows[a], rows[b]
		if ra.Seconds != rb.Seconds {
			return ra.Seconds > rb.Seconds
		}
		if ra.Nodes != rb.Nodes {
			return ra.Nodes > rb.Nodes
		}
		return ra.Body < rb.Body
	})
	return rows
}

// profilezDefaultK bounds the /profilez response when no ?k= is given.
const profilezDefaultK = 20

// profilezHandler serves the live profile as JSON: the top-K rows by
// self-time plus the row count before truncation. ?k=N overrides K
// (0 = all).
func profilezHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		k := profilezDefaultK
		if q := req.URL.Query().Get("k"); q != "" {
			n, err := strconv.Atoi(q)
			if err != nil {
				http.Error(w, fmt.Sprintf("bad k: %v", err), http.StatusBadRequest)
				return
			}
			k = n
		}
		rows := Rows(SnapshotRules())
		doc := struct {
			Enabled bool  `json:"enabled"`
			Bodies  int   `json:"bodies"`
			Rows    []Row `json:"rows"`
		}{Enabled: AttrEnabled(), Bodies: len(rows), Rows: rows}
		if k > 0 && len(doc.Rows) > k {
			doc.Rows = doc.Rows[:k]
		}
		if doc.Rows == nil {
			doc.Rows = []Row{}
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(doc)
	})
}

// PromMaxRules caps the per-rule series /metrics exposes.
// Label cardinality is the classic Prometheus failure mode; fifty bodies
// ranked by cost cover any plausible dashboard, and the truncation is
// announced with an explicit gauge rather than silently.
const PromMaxRules = 50

// writeRuleProm writes the per-rule exposition section of /metrics: for each
// of the top PromMaxRules rows, rule-labeled series for searches, nodes and
// self-time, plus a truncation gauge when the cap bit.
func writeRuleProm(w io.Writer) error {
	rows := Rows(SnapshotRules())
	truncated := 0
	if len(rows) > PromMaxRules {
		truncated = len(rows) - PromMaxRules
		rows = rows[:PromMaxRules]
	}
	if len(rows) == 0 && truncated == 0 {
		return nil
	}
	type series struct {
		name, typ string
		value     func(Row) string
	}
	for _, sr := range []series{
		{"kbrepair_rule_searches_total", "counter", func(r Row) string { return strconv.FormatInt(r.Searches, 10) }},
		{"kbrepair_rule_backtrack_nodes_total", "counter", func(r Row) string { return strconv.FormatInt(r.Nodes, 10) }},
		{"kbrepair_rule_search_seconds_sum", "counter", func(r Row) string { return strconv.FormatFloat(r.Seconds, 'g', -1, 64) }},
	} {
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", sr.name, sr.typ); err != nil {
			return err
		}
		for _, r := range rows {
			if _, err := fmt.Fprintf(w, "%s{rule=%q} %s\n", sr.name, r.Body, sr.value(r)); err != nil {
				return err
			}
		}
	}
	_, err := fmt.Fprintf(w, "# TYPE kbrepair_rule_series_truncated gauge\nkbrepair_rule_series_truncated %d\n", truncated)
	return err
}
