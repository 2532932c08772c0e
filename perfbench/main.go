// Command perfbench measures kbrepair repair sessions end to end and layer
// by layer on pinned synthetic knowledge bases.
//
//	perfbench --workload fig3-cdd --seed 1 --seconds 20 --trace 0
//	perfbench --workload fig4b-tgd --seed 1 --seconds 20 --trace 1
//	perfbench compare old.jsonl new.jsonl
//
// With --trace 0 it runs whole rounds of sessions, closed loop, until
// --seconds have passed, times them at the User boundary and prints the
// end-to-end metrics. With --trace 1 it replays the same sessions through a
// span-recording replayer at one worker and at the default worker count,
// checks that the dialogues match the untraced run, and prints the
// per-layer metrics. The last line of standard output is a JSON result.
// See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is one run as --out appends it; compare reads these back.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	KBSeed   int64  `json:"kb_seed"`
	KBSHA256 string `json:"kb_sha256"`
	Trace    bool   `json:"trace"`
	NumCPU   int    `json:"num_cpu"`
	Go       string `json:"go"`
	// Dialogues is the sha256 of the run's session transcripts: equal
	// values mean the program asked and applied exactly the same things.
	Dialogues string `json:"dialogues_sha256"`
	Result    result `json:"result"`
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareCmd(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: fig3-cdd, fig4b-tgd or large-sparse")
	seed := fs.Int64("seed", 1, "seed of the order the panel's sessions run in")
	seconds := fs.Float64("seconds", 15, "measure whole rounds of sessions until about this many seconds have passed")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	outPath := fs.String("out", "", "append a JSON record of the run to this file")
	spansPath := fs.String("spans", "", "file a traced run writes its spans to (default .bench_build/spans/<workload>-seed<seed>.jsonl)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive")
		return 2
	}
	text, err := w.generate()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "perfbench %s seed=%d kb_seed=%d kb_sha256=%s go=%s num_cpu=%d gomaxprocs=%d\n",
		w.name, *seed, w.params.Seed, w.digest, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0))

	if *cpuProfile != "" {
		stop, err := startCPUProfile(*cpuProfile)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench: --cpuprofile:", err)
			return 1
		}
		defer stop()
	}
	var res result
	var dialogues []string
	if *trace == 0 {
		res, dialogues = timedRun(w, text, *seed, *seconds, stdout, stderr)
	} else {
		path := *spansPath
		if path == "" {
			path = fmt.Sprintf(".bench_build/spans/%s-seed%d.jsonl", w.name, *seed)
		}
		res, dialogues = tracedRun(w, text, *seconds, path, stdout, stderr)
	}
	if *outPath != "" {
		rec := record{Workload: w.name, Seed: *seed, KBSeed: w.params.Seed, KBSHA256: w.digest,
			Trace: *trace == 1, NumCPU: runtime.NumCPU(), Go: runtime.Version(),
			Dialogues: digestOf(strings.Join(dialogues, "\x00")), Result: res}
		if err := appendRecord(*outPath, rec); err != nil {
			fmt.Fprintln(stderr, "perfbench: --out:", err)
			return 1
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if _, err := fmt.Fprintf(stdout, "%s\n", line); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// printMetrics writes every metric by name with its unit, in the given
// order.
func printMetrics(w io.Writer, m map[string]metric, order []string) {
	for _, k := range order {
		if v, ok := m[k]; ok {
			fmt.Fprintf(w, "  %-34s %14.6f %s\n", k, v.Value, v.Unit)
		}
	}
}

// startCPUProfile profiles the process into path until the returned stop
// function runs.
func startCPUProfile(path string) (stop func(), err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}, nil
}

func appendRecord(path string, rec record) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
