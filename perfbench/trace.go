package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call in a traced pass. Spans nest strictly: a pass runs
// on one goroutine, so a child always ends before its parent.
type span struct {
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"` // since the tracer's origin
	End     int64  `json:"end_ns"`
	Parent  int    `json:"parent"` // index in the same tracer, -1 for a root
	Session int    `json:"session"`
}

// tracer keeps a pass's spans in memory.
type tracer struct {
	origin  time.Time
	spans   []span
	open    []int
	session int
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) begin(name string) int {
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.origin)), Parent: parent, Session: t.session})
	t.open = append(t.open, len(t.spans)-1)
	return len(t.spans) - 1
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	n := len(t.open)
	if n == 0 || t.open[n-1] != id {
		panic(fmt.Sprintf("perfbench: span %q ended out of order", t.spans[id].Name))
	}
	t.spans[id].End = int64(time.Since(t.origin))
	t.open = t.open[:n-1]
}

// selfTimes returns each span name's self time (duration minus the time its
// children cover) and the total duration of the root spans.
func (t *tracer) selfTimes() (self map[string]time.Duration, wall time.Duration, err error) {
	if len(t.open) > 0 {
		return nil, 0, fmt.Errorf("%d spans still open", len(t.open))
	}
	self = make(map[string]time.Duration)
	for _, s := range t.spans {
		d := time.Duration(s.End - s.Start)
		self[s.Name] += d
		if s.Parent < 0 {
			wall += d
		} else {
			self[t.spans[s.Parent].Name] -= d
		}
	}
	return self, wall, nil
}

// writeSpans appends the spans of every pass to path as JSON lines, one
// span per line, tagged with the pass's worker count and index.
func writeSpans(path string, passes []tracedPass) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i, p := range passes {
		for _, s := range p.tr.spans {
			rec := struct {
				Pass    int `json:"pass"`
				Workers int `json:"workers"`
				span
			}{i, p.workers, s}
			if err := enc.Encode(rec); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
