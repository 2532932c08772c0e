package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// compareCmd prints, per workload and metric, the median of each of two
// result sets (files of --out records). It refuses to compare a workload
// whose input digests differ, so that drift in synth or the parser cannot
// pass as a speed change, and it counts the seeds whose dialogues changed.
func compareCmd(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: perfbench compare OLD.jsonl NEW.jsonl")
		return 2
	}
	var sets [2][]record
	for i, path := range args {
		recs, err := loadRecords(path)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench compare:", err)
			return 1
		}
		sets[i] = recs
	}
	type key struct {
		workload string
		trace    bool
	}
	group := func(recs []record) map[key][]record {
		g := make(map[key][]record)
		for _, r := range recs {
			k := key{r.Workload, r.Trace}
			g[k] = append(g[k], r)
		}
		return g
	}
	olds, news := group(sets[0]), group(sets[1])
	var keys []key
	for k := range olds {
		if _, ok := news[k]; ok {
			keys = append(keys, k)
		}
	}
	if len(keys) == 0 {
		fmt.Fprintln(stderr, "perfbench compare: the two sets share no workload")
		return 1
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return !keys[i].trace
	})
	for _, k := range keys {
		if err := sameInputs(olds[k], news[k]); err != nil {
			fmt.Fprintf(stderr, "perfbench compare: refusing to compare %s: %v\n", k.workload, err)
			return 2
		}
	}
	for _, k := range keys {
		old, cur := olds[k], news[k]
		changed, common := dialogueChanges(old, cur)
		fmt.Fprintf(stdout, "%s trace=%v: %d vs %d runs; dialogues changed on %d of %d common seeds\n",
			k.workload, k.trace, len(old), len(cur), changed, common)
		for _, name := range metricNames(old) {
			a, b := metricMedian(old, name), metricMedian(cur, name)
			fmt.Fprintf(stdout, "  %-34s %14.6f %14.6f %+8.2f%%\n", name, a, b, 100*(b/a-1))
		}
	}
	return 0
}

func loadRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	for line := 1; sc.Scan(); line++ {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if r.Workload == "" || r.KBSHA256 == "" {
			return nil, fmt.Errorf("%s:%d: not a perfbench record", path, line)
		}
		out = append(out, r)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no records", path)
	}
	return out, nil
}

// sameInputs checks that every record of both sets ran on one KB.
func sameInputs(old, cur []record) error {
	want := old[0].KBSHA256
	for _, r := range append(append([]record(nil), old...), cur...) {
		if r.KBSHA256 != want {
			return fmt.Errorf("input digests differ (%s vs %s)", want, r.KBSHA256)
		}
	}
	return nil
}

// dialogueChanges counts the seeds both sets ran and, of those, the seeds
// whose dialogues differ.
func dialogueChanges(old, cur []record) (changed, common int) {
	bySeed := make(map[int64]string)
	for _, r := range old {
		bySeed[r.Seed] = r.Dialogues
	}
	for _, r := range cur {
		if d, ok := bySeed[r.Seed]; ok {
			common++
			if d != r.Dialogues {
				changed++
			}
			delete(bySeed, r.Seed)
		}
	}
	return changed, common
}

func metricNames(recs []record) []string {
	seen := make(map[string]bool)
	var out []string
	for _, r := range recs {
		for name := range r.Result.Metrics {
			if !seen[name] {
				seen[name] = true
				out = append(out, name)
			}
		}
	}
	sort.Strings(out)
	return out
}

func metricMedian(recs []record, name string) float64 {
	var xs []float64
	for _, r := range recs {
		if m, ok := r.Result.Metrics[name]; ok {
			xs = append(xs, m.Value)
		}
	}
	return median(xs)
}
