// Command kbdump inspects post-mortem debug bundles written by the kbrepair
// CLIs (-debug-bundle, SIGQUIT/SIGUSR1, panic handler, /debugz). It accepts
// either bundle form — a section directory or a single /debugz JSON
// document — and pretty-prints the manifest, the flight-event timeline, the
// anomaly summary, the KB digest, the journal summary and the metrics
// snapshot.
//
// Usage:
//
//	kbdump bundle-dir/                  # full report
//	kbdump -timeline=false bundle-dir/  # skip the event timeline
//	kbdump -metrics debugz.json         # include the metrics snapshot
//	kbdump -diff old-bundle/ new-bundle/
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"kbrepair/internal/core"
	"kbrepair/internal/exp"
	"kbrepair/internal/homo"
	"kbrepair/internal/inquiry"
	"kbrepair/internal/obs"
	"kbrepair/internal/obs/flight"
)

func main() {
	var (
		timeline    = flag.Bool("timeline", true, "print the flight-event timeline")
		tail        = flag.Int("tail", 0, "print only the last N timeline events (0 = all)")
		withMetrics = flag.Bool("metrics", false, "print the bundle's metrics snapshot")
		goroutines  = flag.Bool("goroutines", false, "print the goroutine stacks")
		profile     = flag.Bool("profile", false, "print the per-rule plan-quality profile from the bundle's attribution snapshot")
		top         = flag.Int("top", 10, "with -profile: rows to print (0 = all)")
		diff        = flag.Bool("diff", false, "compare two bundles (usage: kbdump -diff old new)")
		follow      = flag.Bool("follow", false, "poll a live /debugz endpoint, streaming new flight events (usage: kbdump -follow host:port)")
		interval    = flag.Duration("interval", 2*time.Second, "with -follow: polling interval")
		polls       = flag.Int("polls", 0, "with -follow: stop after N polls (0 = until the process goes away)")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: kbdump [flags] <bundle>\n       kbdump -diff <old-bundle> <new-bundle>\n       kbdump -follow <host:port | url>\n\nA bundle is a -debug-bundle directory or a /debugz JSON file.\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	out := bufio.NewWriter(os.Stdout)
	var runErr error
	switch {
	case *diff:
		if flag.NArg() != 2 {
			flag.Usage()
			os.Exit(2)
		}
		runErr = runDiff(out, flag.Arg(0), flag.Arg(1))
	case *follow:
		if flag.NArg() != 1 {
			flag.Usage()
			os.Exit(2)
		}
		runErr = runFollow(out, flag.Arg(0), *interval, *polls)
	case flag.NArg() == 1:
		runErr = run(out, flag.Arg(0), *timeline, *tail, *withMetrics, *goroutines, *profile, *top)
	default:
		flag.Usage()
		os.Exit(2)
	}
	if err := out.Flush(); err != nil && runErr == nil {
		runErr = err
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "kbdump:", runErr)
		os.Exit(1)
	}
}

// event is the parsed form of one flight-event JSONL line. Field names vary
// per kind, so everything beyond the fixed trio lands in Extra.
type event struct {
	Seq   uint64
	TUS   int64
	Kind  string
	Extra []kv // remaining fields, in a stable order
}

type kv struct {
	K string
	V any
}

func parseEvent(raw json.RawMessage) (event, error) {
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		return event{}, err
	}
	e := event{}
	if v, ok := m["seq"].(float64); ok {
		e.Seq = uint64(v)
	}
	if v, ok := m["t_us"].(float64); ok {
		e.TUS = int64(v)
	}
	e.Kind, _ = m["kind"].(string)
	delete(m, "seq")
	delete(m, "t_us")
	delete(m, "kind")
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		e.Extra = append(e.Extra, kv{K: k, V: m[k]})
	}
	return e, nil
}

func (e event) payload() string {
	parts := make([]string, 0, len(e.Extra))
	for _, f := range e.Extra {
		switch v := f.V.(type) {
		case float64:
			parts = append(parts, fmt.Sprintf("%s=%d", f.K, int64(v)))
		default:
			parts = append(parts, fmt.Sprintf("%s=%v", f.K, v))
		}
	}
	return strings.Join(parts, " ")
}

func parseEvents(b *flight.Bundle) ([]event, error) {
	out := make([]event, 0, len(b.Events))
	for i, raw := range b.Events {
		e, err := parseEvent(raw)
		if err != nil {
			return nil, fmt.Errorf("event %d: %w", i, err)
		}
		out = append(out, e)
	}
	return out, nil
}

func run(w io.Writer, path string, timeline bool, tail int, withMetrics, goroutines, profile bool, top int) error {
	b, err := flight.ReadBundle(path)
	if err != nil {
		return err
	}
	events, err := parseEvents(b)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}

	writeManifest(w, b)
	writeDigest(w, b)
	writeJournal(w, b)
	writeTrace(w, b)
	writeRuntime(w, b)
	writeAnomalies(w, events)
	if profile {
		writeProfile(w, b, top)
	}
	if timeline {
		writeTimeline(w, events, tail)
	}
	if withMetrics {
		exp.WriteMetrics(w, b.Metrics)
	}
	if goroutines {
		fmt.Fprintln(w, "== Goroutines ==")
		fmt.Fprintln(w, strings.TrimRight(b.Goroutines, "\n"))
	}
	return nil
}

func writeManifest(w io.Writer, b *flight.Bundle) {
	fmt.Fprintln(w, "== Bundle ==")
	fmt.Fprintf(w, "  schema v%d, reason %q", b.SchemaVersion, b.Reason)
	if b.Cmd != "" {
		fmt.Fprintf(w, ", cmd %s", b.Cmd)
	}
	fmt.Fprintln(w)
	if len(b.Args) > 0 {
		fmt.Fprintf(w, "  args: %s\n", strings.Join(b.Args, " "))
	}
	fmt.Fprintf(w, "  env: %s %s/%s cpus=%d gomaxprocs=%d pid=%d",
		b.Env.GoVersion, b.Env.GOOS, b.Env.GOARCH, b.Env.NumCPU, b.Env.GOMAXPROCS, b.Env.PID)
	if b.Env.VCSRevision != "" {
		rev := b.Env.VCSRevision
		if len(rev) > 12 {
			rev = rev[:12]
		}
		fmt.Fprintf(w, " rev=%s", rev)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "  events: %d retained of %d recorded", b.EventsRetained, b.EventsTotal)
	if evicted := b.EventsTotal - uint64(b.EventsRetained); b.EventsTotal > 0 && evicted > 0 {
		fmt.Fprintf(w, " (%d evicted by the ring)", evicted)
	}
	fmt.Fprintln(w)
	if b.HeapProfile != "" || b.MutexProfile != "" || b.BlockProfile != "" {
		fmt.Fprintf(w, "  profiles: heap %dB, mutex %dB, block %dB\n",
			len(b.HeapProfile), len(b.MutexProfile), len(b.BlockProfile))
	}
	fmt.Fprintln(w)
}

// writeRuntime renders the runtime/metrics reading taken at capture time.
func writeRuntime(w io.Writer, b *flight.Bundle) {
	if b.Runtime == nil {
		return
	}
	r := b.Runtime
	fmt.Fprintln(w, "== Runtime ==")
	fmt.Fprintf(w, "  goroutines=%d gomaxprocs=%d heap_live=%dMB heap_goal=%dMB gc_cycles=%d\n",
		r.Goroutines, r.GOMAXPROCS, r.HeapLiveBytes>>20, r.HeapGoalBytes>>20, r.GCCycles)
	fmt.Fprintf(w, "  gc pauses: %d samples, p50=%.3gms p99=%.3gms max=%.3gms\n",
		r.GCPauses.Count, r.GCPauses.P50*1e3, r.GCPauses.P99*1e3, r.GCPauses.Max*1e3)
	fmt.Fprintf(w, "  sched latency: %d samples, p50=%.3gms p99=%.3gms max=%.3gms\n",
		r.SchedLatencies.Count, r.SchedLatencies.P50*1e3, r.SchedLatencies.P99*1e3, r.SchedLatencies.Max*1e3)
	fmt.Fprintln(w)
}

func writeDigest(w io.Writer, b *flight.Bundle) {
	if len(b.KBDigest) == 0 {
		return
	}
	var d core.Digest
	if err := json.Unmarshal(b.KBDigest, &d); err != nil {
		fmt.Fprintf(w, "== KB digest == (unreadable: %v)\n\n", err)
		return
	}
	fmt.Fprintln(w, "== KB digest ==")
	fmt.Fprintf(w, "  facts=%d tgds=%d cdds=%d naive_conflicts=%d\n", d.Facts, d.TGDs, d.CDDs, d.NaiveConflicts)
	preds := make([]string, 0, len(d.Predicates))
	for p := range d.Predicates {
		preds = append(preds, p)
	}
	sort.Strings(preds)
	for _, p := range preds {
		fmt.Fprintf(w, "  %-24s %6d facts\n", p, d.Predicates[p])
	}
	fmt.Fprintln(w)
}

func writeJournal(w io.Writer, b *flight.Bundle) {
	if len(b.Journal) == 0 {
		return
	}
	j, err := inquiry.UnmarshalJournal(b.Journal)
	if err != nil {
		fmt.Fprintf(w, "== Journal == (unreadable: %v)\n\n", err)
		return
	}
	fmt.Fprintln(w, "== Journal ==")
	phase2 := 0
	for _, e := range j.Entries {
		if e.Phase == 2 {
			phase2++
		}
	}
	fmt.Fprintf(w, "  strategy=%s seed=%d answers=%d (phase2=%d)", j.Strategy, j.Seed, len(j.Entries), phase2)
	if j.Digest == nil {
		fmt.Fprint(w, " [no KB digest header]")
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w)
}

// writeTrace renders the bundle's trace digest: the slowest recent
// questions with their latency decomposition, the post-mortem answer to
// "what was the dialogue waiting on?". Absent when the process ran without
// tracing.
func writeTrace(w io.Writer, b *flight.Bundle) {
	if b.Trace == nil {
		return
	}
	d := b.Trace
	fmt.Fprintln(w, "== Trace ==")
	fmt.Fprintf(w, "  spans: %d retained of %d records, questions=%d\n",
		d.SpansRetained, d.RecordsTotal, d.Questions)
	for _, q := range d.Slowest {
		fmt.Fprintf(w, "  question %d (phase %d) total=%s", q.Q, q.Phase, fmtT(q.TotalUS))
		if q.EngineDelayUS >= 0 {
			fmt.Fprintf(w, " delay=%s", fmtT(q.EngineDelayUS))
		}
		fmt.Fprintln(w)
		for _, c := range q.Components {
			fmt.Fprintf(w, "    %-24s %10s  x%d\n", c.Name, fmtT(c.DurUS), c.Count)
		}
		fmt.Fprintf(w, "    %-24s %10s\n", "(unattributed)", fmtT(q.UnattributedUS))
	}
	fmt.Fprintln(w)
}

func writeAnomalies(w io.Writer, events []event) {
	var lines []string
	for _, e := range events {
		if e.Kind != "anomaly" {
			continue
		}
		lines = append(lines, fmt.Sprintf("  t=%s %s", fmtT(e.TUS), e.payload()))
	}
	fmt.Fprintln(w, "== Anomalies ==")
	if len(lines) == 0 {
		fmt.Fprintln(w, "  none")
	}
	for _, l := range lines {
		fmt.Fprintln(w, l)
	}
	fmt.Fprintln(w)
}

// writeProfile renders the per-rule plan-quality table from the bundle's
// attribution snapshot: the most expensive bodies first, so "which rule is
// slow?" is the first line. When the bundle carries a plans.json section,
// each row is joined to its compiled-plan annotation — the kernel mode and
// the compile-time join order the body actually ran with. The join uses the
// bundle, not the live registry: a bundle describes the process that wrote
// it, not this one.
func writeProfile(w io.Writer, b *flight.Bundle, top int) {
	fmt.Fprintln(w, "== Profile ==")
	if b.Attr == nil {
		fmt.Fprintln(w, "  no attribution snapshot in this bundle (the process ran without per-rule attribution)")
		fmt.Fprintln(w)
		return
	}
	all := obs.Rows(b.Attr)
	rows := all
	if top > 0 && len(rows) > top {
		rows = rows[:top]
	}
	if len(rows) == 0 {
		fmt.Fprintln(w, "  no homomorphism searches recorded")
		fmt.Fprintln(w)
		return
	}
	plans := bundlePlans(b)
	fmt.Fprintf(w, "  %-40s %-8s %9s %12s %10s %12s %9s %9s %6s  %s\n",
		"body", "mode", "searches", "nodes", "med.nodes", "probes", "matches", "seconds", "share", "order")
	for _, r := range rows {
		body := r.Body
		if len(body) > 40 {
			body = body[:37] + "..."
		}
		mode, order := "-", ""
		if pi, ok := plans[r.Body]; ok {
			mode, order = pi.Mode, pi.OrderString()
		}
		fmt.Fprintf(w, "  %-40s %-8s %9d %12d %10.0f %12d %9d %9.3f %5.1f%%  %s\n",
			body, mode, r.Searches, r.Nodes, r.MedianNodes, r.Probes, r.Matches, r.Seconds, r.TimeShare*100, order)
	}
	if len(all) > len(rows) {
		fmt.Fprintf(w, "  ... %d more bodies elided (-top)\n", len(all)-len(rows))
	}
	fmt.Fprintln(w)
}

// bundlePlans decodes the bundle's plans.json section into a body-keyed map.
// A missing or unreadable section yields an empty map: the profile degrades
// to unannotated rows instead of failing the whole report.
func bundlePlans(b *flight.Bundle) map[string]homo.PlanInfo {
	plans := map[string]homo.PlanInfo{}
	if len(b.Plans) == 0 {
		return plans
	}
	var infos []homo.PlanInfo
	if err := json.Unmarshal(b.Plans, &infos); err != nil {
		return plans
	}
	for _, pi := range infos {
		plans[pi.Body] = pi
	}
	return plans
}

func writeTimeline(w io.Writer, events []event, tail int) {
	fmt.Fprintln(w, "== Timeline ==")
	start := 0
	if tail > 0 && len(events) > tail {
		start = len(events) - tail
		fmt.Fprintf(w, "  ... %d earlier events elided (-tail)\n", start)
	}
	for _, e := range events[start:] {
		fmt.Fprintf(w, "  #%-6d t=%-12s %-24s %s\n", e.Seq, fmtT(e.TUS), e.Kind, e.payload())
	}
	if len(events) == 0 {
		fmt.Fprintln(w, "  (no events — the recorder was disabled or nothing ran)")
	}
	fmt.Fprintln(w)
}

// fmtT renders microseconds-since-enable in a human unit.
func fmtT(us int64) string {
	switch {
	case us >= 10_000_000:
		return fmt.Sprintf("%.2fs", float64(us)/1e6)
	case us >= 10_000:
		return fmt.Sprintf("%.2fms", float64(us)/1e3)
	default:
		return fmt.Sprintf("%dus", us)
	}
}

// runDiff compares two bundles: manifest provenance, event-kind counts,
// anomaly counts, KB digests and the counter deltas — the "what changed
// between the run that worked and the run that didn't" view.
func runDiff(w io.Writer, oldPath, newPath string) error {
	ob, err := flight.ReadBundle(oldPath)
	if err != nil {
		return err
	}
	nb, err := flight.ReadBundle(newPath)
	if err != nil {
		return err
	}
	oldEvents, err := parseEvents(ob)
	if err != nil {
		return fmt.Errorf("%s: %w", oldPath, err)
	}
	newEvents, err := parseEvents(nb)
	if err != nil {
		return fmt.Errorf("%s: %w", newPath, err)
	}

	fmt.Fprintf(w, "== Diff: %s -> %s ==\n", oldPath, newPath)
	if ob.Cmd != nb.Cmd {
		fmt.Fprintf(w, "  cmd: %s -> %s\n", ob.Cmd, nb.Cmd)
	}
	if ob.Env.GoVersion != nb.Env.GoVersion {
		fmt.Fprintf(w, "  go: %s -> %s\n", ob.Env.GoVersion, nb.Env.GoVersion)
	}
	if ob.Env.VCSRevision != nb.Env.VCSRevision {
		fmt.Fprintf(w, "  revision: %s -> %s\n", ob.Env.VCSRevision, nb.Env.VCSRevision)
	}
	fmt.Fprintf(w, "  events recorded: %d -> %d\n", ob.EventsTotal, nb.EventsTotal)
	fmt.Fprintln(w)

	diffDigests(w, ob, nb)

	fmt.Fprintln(w, "== Event kinds ==")
	writeCountDiff(w, kindCounts(oldEvents), kindCounts(newEvents), "")
	fmt.Fprintln(w)

	fmt.Fprintln(w, "== Anomalies ==")
	writeCountDiff(w, anomalyCounts(oldEvents), anomalyCounts(newEvents), "none in either bundle")
	fmt.Fprintln(w)

	fmt.Fprintln(w, "== Counters ==")
	counters := func(s map[string]int64) map[string]int64 { return s }
	writeCountDiff(w, counters(ob.Metrics.Counters), counters(nb.Metrics.Counters), "")
	return nil
}

func diffDigests(w io.Writer, ob, nb *flight.Bundle) {
	if len(ob.KBDigest) == 0 && len(nb.KBDigest) == 0 {
		return
	}
	var od, nd core.Digest
	oOK := json.Unmarshal(ob.KBDigest, &od) == nil && len(ob.KBDigest) > 0
	nOK := json.Unmarshal(nb.KBDigest, &nd) == nil && len(nb.KBDigest) > 0
	fmt.Fprintln(w, "== KB digest ==")
	switch {
	case oOK && nOK:
		if d := od.Diff(nd); d != "" {
			fmt.Fprintf(w, "  %s\n", d)
		} else {
			fmt.Fprintln(w, "  identical")
		}
	case oOK:
		fmt.Fprintln(w, "  only the old bundle has a digest")
	case nOK:
		fmt.Fprintln(w, "  only the new bundle has a digest")
	}
	fmt.Fprintln(w)
}

func kindCounts(events []event) map[string]int64 {
	out := make(map[string]int64)
	for _, e := range events {
		out[e.Kind]++
	}
	return out
}

func anomalyCounts(events []event) map[string]int64 {
	out := make(map[string]int64)
	for _, e := range events {
		if e.Kind != "anomaly" {
			continue
		}
		name := "unknown"
		for _, f := range e.Extra {
			if f.K == "anomaly" {
				name, _ = f.V.(string)
			}
		}
		out[name]++
	}
	return out
}

// writeCountDiff prints old -> new per key (union of both maps, sorted),
// marking changed rows, or empty when both sides are empty.
func writeCountDiff(w io.Writer, old, new map[string]int64, emptyNote string) {
	keys := make(map[string]bool, len(old)+len(new))
	for k := range old {
		keys[k] = true
	}
	for k := range new {
		keys[k] = true
	}
	if len(keys) == 0 {
		if emptyNote != "" {
			fmt.Fprintf(w, "  %s\n", emptyNote)
		}
		return
	}
	sorted := make([]string, 0, len(keys))
	for k := range keys {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)
	for _, k := range sorted {
		marker := " "
		if old[k] != new[k] {
			marker = "*"
		}
		fmt.Fprintf(w, "  %s %-36s %12d -> %-12d\n", marker, k, old[k], new[k])
	}
}
