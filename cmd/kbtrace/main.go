// Command kbtrace analyzes the JSONL execution traces written by the
// kbrepair CLIs (-trace): it reconstructs the causal span forest and
// renders per-question latency waterfalls, a per-span-name time table, the
// critical path of a run, and a Chrome trace_event export loadable in
// Perfetto or chrome://tracing.
//
// Usage:
//
//	kbtrace run.trace                    # summary + top span names
//	kbtrace -waterfall run.trace         # per-question latency waterfalls
//	kbtrace -waterfall -top 5 run.trace  # only the 5 slowest questions
//	kbtrace -critical-path run.trace     # the run's critical path
//	kbtrace -chrome out.json run.trace   # export for Perfetto
//	kbrepair ... -trace /dev/stdout | kbtrace -waterfall -
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"

	"kbrepair/internal/obs/traceview"
)

func main() {
	var (
		waterfall = flag.Bool("waterfall", false, "print per-question latency waterfalls (fails when the trace has no question spans)")
		top       = flag.Int("top", 0, "with -waterfall: only the N slowest questions (0 = all, in run order); elsewhere: rows in the span-name table (0 = all)")
		critical  = flag.Bool("critical-path", false, "print the critical path of the run")
		chrome    = flag.String("chrome", "", "write a Chrome trace_event JSON export to this file (use chrome://tracing or ui.perfetto.dev)")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: kbtrace [flags] <trace.jsonl | ->\n\nAnalyze a JSONL trace produced with -trace on the kbrepair CLIs.\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}

	out := bufio.NewWriter(os.Stdout)
	runErr := run(out, flag.Arg(0), *waterfall, *top, *critical, *chrome)
	if err := out.Flush(); err != nil && runErr == nil {
		runErr = err
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "kbtrace:", runErr)
		os.Exit(1)
	}
}

// run parses the trace and renders the requested views. It is the testable
// core: main only wires flags and exit codes around it.
func run(out io.Writer, path string, waterfall bool, top int, critical bool, chromePath string) error {
	f, err := parseTrace(path)
	if err != nil {
		return err
	}
	if f.Spans() == 0 && len(f.Events) == 0 {
		return fmt.Errorf("%s: empty trace", path)
	}

	anyView := false
	if waterfall {
		anyView = true
		if err := printWaterfalls(out, f, top); err != nil {
			return err
		}
	}
	if critical {
		anyView = true
		printCriticalPath(out, f)
	}
	if chromePath != "" {
		anyView = true
		if err := exportChrome(f, chromePath); err != nil {
			return err
		}
		fmt.Fprintf(out, "chrome trace_event export written to %s\n", chromePath)
	}
	if !anyView {
		printSummary(out, f, top)
	}
	return nil
}

func parseTrace(path string) (*traceview.Forest, error) {
	var r io.Reader
	if path == "-" {
		r = os.Stdin
	} else {
		file, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer file.Close()
		r = file
	}
	f, err := traceview.Parse(r)
	if err != nil {
		if path != "-" {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return nil, err
	}
	return f, nil
}

// printWaterfalls renders one block per question span. It errors when the
// trace holds no question spans: a trace recorded without the inquiry
// engine (or from an older build without parentage) has no waterfalls to
// show, and make trace-smoke relies on the non-zero exit to catch exactly
// that regression.
func printWaterfalls(out io.Writer, f *traceview.Forest, top int) error {
	ws := f.Waterfalls()
	if len(ws) == 0 {
		return fmt.Errorf("no %s spans in trace (need a trace recorded from a repair run)", traceview.QuestionSpanName)
	}
	if top > 0 {
		ws = f.SlowestQuestions(top)
	}
	for _, w := range ws {
		fmt.Fprintf(out, "question %d (phase %d)  total %s", w.Q, w.Phase, us(w.TotalUS))
		if w.EngineDelayUS >= 0 {
			fmt.Fprintf(out, "  engine delay %s", us(w.EngineDelayUS))
		}
		fmt.Fprintln(out)
		width := 0
		for _, c := range w.Components {
			if len(c.Name) > width {
				width = len(c.Name)
			}
		}
		if len("(unattributed)") > width {
			width = len("(unattributed)")
		}
		for _, c := range w.Components {
			fmt.Fprintf(out, "  %-*s %10s  %s  ×%d\n", width, c.Name, us(c.DurUS), bar(c.DurUS, w.TotalUS), c.Count)
		}
		fmt.Fprintf(out, "  %-*s %10s  %s\n", width, "(unattributed)", us(w.UnattributedUS), bar(w.UnattributedUS, w.TotalUS))
	}
	fmt.Fprintf(out, "%d questions\n", len(ws))
	return nil
}

func printCriticalPath(out io.Writer, f *traceview.Forest) {
	path := f.CriticalPath()
	if len(path) == 0 {
		fmt.Fprintln(out, "critical path: (no spans)")
		return
	}
	fmt.Fprintln(out, "critical path:")
	for depth, s := range path {
		fmt.Fprintf(out, "  %*s%s  total %s  self %s\n",
			2*depth, "", s.Name, us(s.DurUS), us(s.SelfUS))
	}
}

func printSummary(out io.Writer, f *traceview.Forest, top int) {
	ws := f.Waterfalls()
	fmt.Fprintf(out, "%d spans, %d events, %d roots, %d questions\n",
		f.Spans(), len(f.Events), len(f.Roots), len(ws))
	stats := f.Aggregate()
	if top > 0 && len(stats) > top {
		stats = stats[:top]
	}
	width := len("name")
	for _, s := range stats {
		if len(s.Name) > width {
			width = len(s.Name)
		}
	}
	fmt.Fprintf(out, "%-*s %6s %12s %12s %12s\n", width, "name", "count", "total", "self", "max")
	for _, s := range stats {
		fmt.Fprintf(out, "%-*s %6d %12s %12s %12s\n",
			width, s.Name, s.Count, us(s.TotalUS), us(s.SelfUS), us(s.MaxUS))
	}
}

// exportChrome writes the trace_event file and re-reads it through the
// validator, so a reported success means a file the viewers will load.
func exportChrome(f *traceview.Forest, path string) error {
	file, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(file)
	if err := traceview.WriteChrome(w, f); err != nil {
		file.Close()
		return fmt.Errorf("chrome export: %w", err)
	}
	if err := w.Flush(); err != nil {
		file.Close()
		return fmt.Errorf("chrome export: %w", err)
	}
	if err := file.Close(); err != nil {
		return fmt.Errorf("chrome export: %w", err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("chrome export self-check: %w", err)
	}
	if _, err := traceview.ValidateChrome(b); err != nil {
		return fmt.Errorf("chrome export self-check: %w", err)
	}
	return nil
}

// us renders microseconds human-readably while staying deterministic (no
// float formatting surprises: integer math only).
func us(v int64) string {
	switch {
	case v >= 1_000_000 || v <= -1_000_000:
		return fmt.Sprintf("%d.%03ds", v/1_000_000, abs(v)%1_000_000/1_000)
	case v >= 1_000 || v <= -1_000:
		return fmt.Sprintf("%d.%03dms", v/1_000, abs(v)%1_000)
	default:
		return fmt.Sprintf("%dµs", v)
	}
}

func abs(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

// bar renders a 20-cell proportion bar of part within total.
func bar(part, total int64) string {
	const cells = 20
	filled := 0
	if total > 0 && part > 0 {
		filled = int(part * cells / total)
		if filled > cells {
			filled = cells
		}
	}
	b := make([]rune, cells)
	for i := range b {
		if i < filled {
			b[i] = '█'
		} else {
			b[i] = '·'
		}
	}
	return string(b)
}
