package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// promPrefix namespaces every exposed metric, per the Prometheus naming
// convention <namespace>_<subsystem>_<name>.
const promPrefix = "kbrepair_"

// PromName converts a registry instrument name ("chase.run_seconds") to a
// valid Prometheus metric name ("kbrepair_chase_run_seconds"): dots become
// underscores and any other character outside [a-zA-Z0-9_] is dropped to
// an underscore as well.
func PromName(name string) string {
	var b strings.Builder
	b.Grow(len(promPrefix) + len(name))
	b.WriteString(promPrefix)
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format (version 0.0.4): counters with the conventional _total suffix,
// gauges verbatim, histograms as cumulative le-labeled buckets plus _sum
// and _count. Output is sorted by name, so it is deterministic for a given
// snapshot.
func WritePrometheus(w io.Writer, s Snapshot) error {
	names := make([]string, 0, len(s.Counters))
	for n := range s.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		pn := PromName(n) + "_total"
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", pn, pn, s.Counters[n]); err != nil {
			return err
		}
	}

	names = names[:0]
	for n := range s.Gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		pn := PromName(n)
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n", pn, pn, s.Gauges[n]); err != nil {
			return err
		}
	}

	names = names[:0]
	for n := range s.Histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if err := writePromHistogram(w, PromName(n), s.Histograms[n]); err != nil {
			return err
		}
	}
	return nil
}

func writePromHistogram(w io.Writer, pn string, h HistogramSnapshot) error {
	if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", pn); err != nil {
		return err
	}
	var cum int64
	for i, c := range h.Counts {
		cum += c
		le := "+Inf"
		if i < len(h.Bounds) {
			le = formatPromFloat(h.Bounds[i])
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", pn, le, cum); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "%s_sum %s\n%s_count %d\n", pn, formatPromFloat(h.Sum), pn, h.Count)
	return err
}

// formatPromFloat renders a float the way Prometheus clients do: shortest
// representation that round-trips.
func formatPromFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteFullPrometheus renders the snapshot, the per-rule section and the
// Go runtime histograms — what the /metrics endpoint serves.
func WriteFullPrometheus(w io.Writer, s Snapshot) error {
	if err := WritePrometheus(w, s); err != nil {
		return err
	}
	if err := writeRuleProm(w); err != nil {
		return err
	}
	return writeRuntimeProm(w)
}
