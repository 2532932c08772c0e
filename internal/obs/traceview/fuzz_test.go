package traceview

import (
	"bytes"
	"testing"
)

// FuzzTraceParse feeds arbitrary bytes through the kbtrace pipeline:
// parse, walk, aggregate, waterfalls, critical path and Chrome export. Any
// input must yield an error or a result, and an exported result must pass
// ValidateChrome. The seed corpus under testdata/fuzz holds the kbtrace
// fixture trace and malformed variants of it (self-parented spans,
// duplicate span ids).
func FuzzTraceParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		fo, err := Parse(bytes.NewReader(data))
		if err != nil {
			return
		}
		visited := 0
		fo.Walk(func(*Span) { visited++ })
		fo.Aggregate()
		fo.Waterfalls()
		fo.CriticalPath()
		var buf bytes.Buffer
		if err := WriteChrome(&buf, fo); err != nil {
			t.Fatalf("WriteChrome: %v", err)
		}
		n, err := ValidateChrome(buf.Bytes())
		if err != nil {
			t.Fatalf("ValidateChrome rejects the export: %v", err)
		}
		if want := visited + len(fo.Events); n != want {
			t.Fatalf("export holds %d events, want %d spans + events", n, want)
		}
	})
}
