package traceview

import (
	"sort"

	"kbrepair/internal/obs"
)

// QuestionSpanName is the span each waterfall decomposes; RunSpanName is
// the per-run root above it.
const (
	QuestionSpanName = "inquiry.question"
	RunSpanName      = "inquiry.run"
)

// Component is one named slice of a question's latency: the direct child
// spans of the question aggregated by name, in first-occurrence order.
type Component struct {
	Name  string `json:"name"`
	DurUS int64  `json:"dur_us"`
	Count int    `json:"count"`
}

// QuestionWaterfall decomposes one question span. Components plus the
// unattributed remainder sum to TotalUS exactly: components are the direct
// children (each child's own subtree time is inside its duration), and the
// remainder is engine time not covered by any child span.
type QuestionWaterfall struct {
	// Q is the 1-based question index within its run (the span's q attr;
	// 0 when absent).
	Q int `json:"q"`
	// Phase is the inquiry phase (1 or 2; 0 when absent).
	Phase int `json:"phase"`
	// StartUS / TotalUS are the question span's bounds.
	StartUS int64 `json:"start_us"`
	TotalUS int64 `json:"total_us"`
	// EngineDelayUS is the engine's own delay metric (the delay_us attr:
	// question computation excluding user-answer time; -1 when absent).
	EngineDelayUS int64 `json:"engine_delay_us"`
	// Components break TotalUS down; UnattributedUS is the remainder.
	Components     []Component `json:"components"`
	UnattributedUS int64       `json:"unattributed_us"`
}

// waterfallOf decomposes one question span.
func waterfallOf(q *Span) QuestionWaterfall {
	w := QuestionWaterfall{StartUS: q.StartUS, TotalUS: q.DurUS, EngineDelayUS: -1}
	if v, ok := q.AttrInt("q"); ok {
		w.Q = int(v)
	}
	if v, ok := q.AttrInt("phase"); ok {
		w.Phase = int(v)
	}
	if v, ok := q.AttrInt("delay_us"); ok {
		w.EngineDelayUS = v
	}
	idx := make(map[string]int)
	var attributed int64
	for _, c := range q.Child {
		attributed += c.DurUS
		if i, ok := idx[c.Name]; ok {
			w.Components[i].DurUS += c.DurUS
			w.Components[i].Count++
			continue
		}
		idx[c.Name] = len(w.Components)
		w.Components = append(w.Components, Component{Name: c.Name, DurUS: c.DurUS, Count: 1})
	}
	w.UnattributedUS = w.TotalUS - attributed
	return w
}

// Waterfalls returns the per-question decomposition of every question span
// in the forest, in span order (i.e. completion order within a run).
func (f *Forest) Waterfalls() []QuestionWaterfall {
	var out []QuestionWaterfall
	f.Walk(func(s *Span) {
		if s.Name == QuestionSpanName {
			out = append(out, waterfallOf(s))
		}
	})
	return out
}

// NameStat aggregates all spans sharing a name.
type NameStat struct {
	Name    string `json:"name"`
	Count   int    `json:"count"`
	TotalUS int64  `json:"total_us"`
	SelfUS  int64  `json:"self_us"`
	MaxUS   int64  `json:"max_us"`
}

// Aggregate computes per-name count/total/self/max over the whole forest,
// sorted by self time descending (ties by name) — the "where does the time
// actually go" table.
func (f *Forest) Aggregate() []NameStat {
	idx := make(map[string]int)
	var out []NameStat
	f.Walk(func(s *Span) {
		i, ok := idx[s.Name]
		if !ok {
			i = len(out)
			idx[s.Name] = i
			out = append(out, NameStat{Name: s.Name})
		}
		out[i].Count++
		out[i].TotalUS += s.DurUS
		out[i].SelfUS += s.SelfUS()
		if s.DurUS > out[i].MaxUS {
			out[i].MaxUS = s.DurUS
		}
	})
	sort.Slice(out, func(i, j int) bool {
		if out[i].SelfUS != out[j].SelfUS {
			return out[i].SelfUS > out[j].SelfUS
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// PathStep is one hop of a critical path.
type PathStep struct {
	Name   string `json:"name"`
	Span   uint64 `json:"span"`
	DurUS  int64  `json:"dur_us"`
	SelfUS int64  `json:"self_us"`
}

// CriticalPathFrom descends from root along the most expensive child at
// each level (ties: earlier start, then lower id) — the chain of spans
// that bounds the run's latency from below.
func CriticalPathFrom(root *Span) []PathStep {
	var out []PathStep
	for s := root; s != nil; {
		out = append(out, PathStep{Name: s.Name, Span: s.ID, DurUS: s.DurUS, SelfUS: s.SelfUS()})
		var next *Span
		for _, c := range s.Child {
			if next == nil || c.DurUS > next.DurUS {
				next = c
			}
		}
		s = next
	}
	return out
}

// CriticalPath picks the forest's longest root (prefer an inquiry.run span
// if any; ties by duration then start order) and returns its critical
// path. Nil when the forest has no spans.
func (f *Forest) CriticalPath() []PathStep {
	var root *Span
	better := func(a, b *Span) bool { // is a better than b
		if b == nil {
			return true
		}
		ar, br := a.Name == RunSpanName, b.Name == RunSpanName
		if ar != br {
			return ar
		}
		return a.DurUS > b.DurUS
	}
	for _, r := range f.Roots {
		if better(r, root) {
			root = r
		}
	}
	if root == nil {
		return nil
	}
	return CriticalPathFrom(root)
}

// Digest is the compact trace section embedded in debug bundles: ring
// occupancy plus the slowest recent question waterfalls.
type Digest struct {
	// RecordsTotal counts every event the ring ever saw (begin marks and
	// point events included); SpansRetained is how many closed spans
	// survived in the ring at capture time.
	RecordsTotal  uint64 `json:"records_total"`
	SpansRetained int    `json:"spans_retained"`
	// Questions is the number of question spans retained.
	Questions int `json:"questions"`
	// Slowest holds the K slowest retained questions, slowest first.
	Slowest []QuestionWaterfall `json:"slowest,omitempty"`
}

// SlowestQuestions returns the k slowest question waterfalls, slowest
// first (ties: earlier start first).
func (f *Forest) SlowestQuestions(k int) []QuestionWaterfall {
	ws := f.Waterfalls()
	sort.SliceStable(ws, func(i, j int) bool { return ws[i].TotalUS > ws[j].TotalUS })
	if k >= 0 && len(ws) > k {
		ws = ws[:k]
	}
	return ws
}

// BuildDigest summarizes a span record stream (typically the closed spans
// of the event ring, obs.SpanRecords) for embedding: counts plus the k
// slowest questions.
func BuildDigest(recs []obs.Record, total uint64, k int) *Digest {
	f := ParseRecords(recs)
	d := &Digest{RecordsTotal: total, SpansRetained: f.Spans()}
	ws := f.SlowestQuestions(-1)
	d.Questions = len(ws)
	if len(ws) > k {
		ws = ws[:k]
	}
	d.Slowest = ws
	return d
}
