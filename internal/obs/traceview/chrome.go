package traceview

import (
	"encoding/json"
	"fmt"
	"io"
)

// chromeEvent is one entry of the Chrome trace_event format ("JSON Array
// Format" with an object wrapper), as consumed by Perfetto and
// chrome://tracing: complete spans are ph "X" with ts/dur in microseconds,
// instants are ph "i" with thread scope.
type chromeEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TS    int64          `json:"ts"`
	Dur   int64          `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChrome exports the forest as Chrome trace_event JSON. All spans go
// on one pid/tid: the pipeline emits from a single goroutine per run, so
// the viewer reconstructs nesting from time containment, which matches the
// causal tree exactly. Output is deterministic: spans in depth-first
// pre-order over the (start-time-sorted) forest, then events in stream
// order. Spans and events recorded without a name are exported as
// "(unnamed)", since the viewers require a name on every entry.
func WriteChrome(w io.Writer, f *Forest) error {
	out := chromeTrace{TraceEvents: []chromeEvent{}, DisplayTimeUnit: "ms"}
	f.Walk(func(s *Span) {
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name:  chromeName(s.Name),
			Phase: "X",
			TS:    s.StartUS,
			Dur:   s.DurUS,
			PID:   1,
			TID:   1,
			Args:  s.Attrs,
		})
	})
	for _, e := range f.Events {
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name:  chromeName(e.Name),
			Phase: "i",
			TS:    e.StartUS,
			PID:   1,
			TID:   1,
			Scope: "t",
			Args:  e.Attrs,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(out)
}

func chromeName(name string) string {
	if name == "" {
		return "(unnamed)"
	}
	return name
}

// ValidateChrome checks that b parses as trace_event JSON with the fields
// the viewers require — the self-check kbtrace runs on its own -chrome
// output and the assertion behind make trace-smoke.
func ValidateChrome(b []byte) (events int, err error) {
	var t chromeTrace
	if err := json.Unmarshal(b, &t); err != nil {
		return 0, err
	}
	for i, e := range t.TraceEvents {
		if e.Name == "" || (e.Phase != "X" && e.Phase != "i" && e.Phase != "M") {
			return 0, fmt.Errorf("trace_event entry %d: missing name or unsupported ph %q", i, e.Phase)
		}
	}
	return len(t.TraceEvents), nil
}
