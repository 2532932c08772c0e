package obs

import (
	"bufio"
	"bytes"
	"math"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// promSample is one parsed exposition line: name, optional le or rule
// label, value.
type promSample struct {
	le   string
	rule string
	val  float64
}

var promNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

// parsePrometheus is a minimal text-format parser for tests: it returns
// samples grouped by metric name and the declared TYPE per family, and
// fails the test on any malformed line.
func parsePrometheus(t *testing.T, text string) (map[string][]promSample, map[string]string) {
	t.Helper()
	samples := make(map[string][]promSample)
	types := make(map[string]string)
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			types[parts[2]] = parts[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed sample line: %q", line)
		}
		id, valStr := line[:sp], line[sp+1:]
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		name, ps := id, promSample{val: val}
		if i := strings.IndexByte(id, '{'); i >= 0 {
			name = id[:i]
			labels := strings.TrimSuffix(id[i+1:], "}")
			switch {
			case strings.HasPrefix(labels, `le="`) && strings.HasSuffix(labels, `"`):
				ps.le = strings.TrimSuffix(strings.TrimPrefix(labels, `le="`), `"`)
			case strings.HasPrefix(labels, `rule="`) && strings.HasSuffix(labels, `"`):
				ps.rule = strings.TrimSuffix(strings.TrimPrefix(labels, `rule="`), `"`)
			default:
				t.Fatalf("unexpected labels in %q", line)
			}
		}
		if !promNameRe.MatchString(name) {
			t.Fatalf("invalid metric name %q", name)
		}
		samples[name] = append(samples[name], ps)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return samples, types
}

func TestWritePrometheusParsesBack(t *testing.T) {
	r := NewRegistry()
	r.Counter("chase.runs").Add(7)
	r.Gauge("inquiry.phase").Set(2)
	h := r.Histogram("chase.run_seconds", []float64{0.001, 0.1, 1})
	for _, v := range []float64{0.0005, 0.05, 0.5, 5} {
		h.Observe(v)
	}

	var buf bytes.Buffer
	if err := WritePrometheus(&buf, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	samples, types := parsePrometheus(t, buf.String())

	if got := samples["kbrepair_chase_runs_total"]; len(got) != 1 || got[0].val != 7 {
		t.Errorf("counter samples = %+v, want one sample of 7", got)
	}
	if types["kbrepair_chase_runs_total"] != "counter" {
		t.Errorf("counter TYPE = %q", types["kbrepair_chase_runs_total"])
	}
	if got := samples["kbrepair_inquiry_phase"]; len(got) != 1 || got[0].val != 2 {
		t.Errorf("gauge samples = %+v, want one sample of 2", got)
	}
	if types["kbrepair_inquiry_phase"] != "gauge" {
		t.Errorf("gauge TYPE = %q", types["kbrepair_inquiry_phase"])
	}

	const hn = "kbrepair_chase_run_seconds"
	if types[hn] != "histogram" {
		t.Errorf("histogram TYPE = %q", types[hn])
	}
	buckets := samples[hn+"_bucket"]
	if len(buckets) != 4 {
		t.Fatalf("bucket count = %d, want 4 (%+v)", len(buckets), buckets)
	}
	// Buckets must be cumulative and end with le="+Inf" == count.
	prev := -1.0
	for _, b := range buckets {
		if b.val < prev {
			t.Errorf("buckets not cumulative: %+v", buckets)
		}
		prev = b.val
	}
	if last := buckets[len(buckets)-1]; last.le != "+Inf" || last.val != 4 {
		t.Errorf("last bucket = %+v, want le=+Inf val=4", last)
	}
	if got := samples[hn+"_count"]; len(got) != 1 || got[0].val != 4 {
		t.Errorf("_count = %+v, want 4", got)
	}
	if got := samples[hn+"_sum"]; len(got) != 1 || math.Abs(got[0].val-5.5505) > 1e-9 {
		t.Errorf("_sum = %+v, want 5.5505", got)
	}
}

func TestPromName(t *testing.T) {
	for in, want := range map[string]string{
		"chase.run_seconds": "kbrepair_chase_run_seconds",
		"weird-name.x/y":    "kbrepair_weird_name_x_y",
	} {
		if got := PromName(in); got != want {
			t.Errorf("PromName(%q) = %q, want %q", in, got, want)
		}
		if !promNameRe.MatchString(PromName(in)) {
			t.Errorf("PromName(%q) not a valid metric name", in)
		}
	}
}

// TestWritePrometheusEmptyHistogram checks a registered-but-never-observed
// histogram still exposes a well-formed family (all-zero buckets).
func TestWritePrometheusEmptyHistogram(t *testing.T) {
	r := NewRegistry()
	r.Histogram("idle.seconds", []float64{1})
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	samples, _ := parsePrometheus(t, buf.String())
	if got := samples["kbrepair_idle_seconds_count"]; len(got) != 1 || got[0].val != 0 {
		t.Errorf("_count = %+v, want 0", got)
	}
	for _, b := range samples["kbrepair_idle_seconds_bucket"] {
		if b.val != 0 {
			t.Errorf("empty histogram has non-zero bucket: %+v", b)
		}
	}
}
