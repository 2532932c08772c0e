package main

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"time"
)

// probeReps is how many times a timed run sets up every session of the panel
// and runs it to its first question before the full sessions start, so that
// setup_s and first_question_ms are medians of many samples even when a
// single round fills the window.
const probeReps = 20

// e2eMetrics lists the end-to-end metrics in print order.
var e2eMetrics = []string{
	"question_delay_p50_ms", "question_delay_p90_ms", "first_question_ms",
	"repair_s", "questions_per_repair", "setup_s",
	"alloc_mb_per_question", "peak_rss_mb",
}

// timedRun runs whole rounds of the panel's sessions, one at a time and in
// an order drawn from seed, until seconds have passed, and derives the
// end-to-end metrics. It also returns round 1's transcripts, in panel order.
func timedRun(w workload, text string, seed int64, seconds float64, stdout, stderr io.Writer) (result, []string) {
	sessions := w.sessions()
	order := rand.New(rand.NewSource(seed))
	res := result{Metrics: map[string]metric{}}
	var setups []float64 // per probe: Σ over the panel of ParseKB + inquiry.New
	var firsts []float64
	for i := 0; i < probeReps; i++ {
		var sum time.Duration
		for _, j := range order.Perm(len(sessions)) {
			setup, first, err := probeSession(text, sessions[j])
			if err != nil {
				fmt.Fprintf(stderr, "perfbench: probe %s/%d: %v\n", sessions[j].strategy, sessions[j].seed, err)
				res.Attempted++
				res.Failed++
				return res, nil
			}
			sum += setup
			firsts = append(firsts, ms(first))
		}
		setups = append(setups, sum.Seconds())
	}

	var (
		delays, walls   []float64
		questions, good int
		allocs          uint64
		rounds          int
	)
	ref := make([]string, len(sessions))
	start := time.Now()
	// Stop before a round that would end more than half a round past the
	// window, so runs last about seconds whatever the round length.
	for ; rounds == 0 || time.Since(start).Seconds()*(1+0.5/float64(rounds)) < seconds; rounds++ {
		for _, j := range order.Perm(len(sessions)) {
			s := sessions[j]
			res.Attempted++
			o, err := runSession(text, s)
			if err == nil {
				t := transcript(o.log)
				if rounds == 0 {
					ref[j] = t
				} else if t != ref[j] {
					err = fmt.Errorf("dialogue differs from round 1 (%s)", firstDifference(ref[j], t))
				}
			}
			if err != nil {
				res.Failed++
				fmt.Fprintf(stderr, "perfbench: round %d session %s/%d: %v\n", rounds+1, s.strategy, s.seed, err)
				continue
			}
			good++
			walls = append(walls, o.wall.Seconds())
			if len(o.log) > 0 {
				firsts = append(firsts, ms(o.first))
			}
			for _, d := range o.delays {
				delays = append(delays, ms(d))
			}
			questions += len(o.log)
			allocs += o.allocBytes
		}
	}
	elapsed := time.Since(start)
	rss, err := peakRSSMiB()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		res.Failed++
		return res, ref
	}
	if good == 0 || len(delays) == 0 {
		return res, ref
	}
	p90 := percentile(delays, 0.90)
	m := res.Metrics
	m["question_delay_p50_ms"] = metric{percentile(delays, 0.5), "ms"}
	m["question_delay_p90_ms"] = metric{p90, "ms"}
	m["first_question_ms"] = metric{median(firsts), "ms"}
	m["repair_s"] = metric{mean(walls), "s"}
	m["questions_per_repair"] = metric{float64(questions) / float64(good), "count"}
	m["setup_s"] = metric{median(setups), "s"}
	m["alloc_mb_per_question"] = metric{float64(allocs) / float64(questions) / (1 << 20), "MiB"}
	m["peak_rss_mb"] = metric{rss, "MiB"}
	res.Correct = res.Failed == 0

	fmt.Fprintf(stdout, "rounds %d of %d sessions in %.1fs; %d sessions failed\n",
		rounds, len(sessions), elapsed.Seconds(), res.Failed)
	fmt.Fprintf(stdout, "question delay samples %d (%d beyond p90); first-question samples %d; set-up samples %d\n",
		len(delays), beyond(delays, p90), len(firsts), len(setups))
	printMetrics(stdout, m, e2eMetrics)
	fmt.Fprintf(stdout, "  %-34s %14.6f share (%d of %d sessions)\n", "failed_sessions",
		float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	return res, ref
}

// peakRSSMiB reads the process's peak resident set size (VmHWM).
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 3 || fields[2] != "kB" {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, fmt.Errorf("peak RSS: %w", err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM line in /proc/self/status")
}

// firstDifference describes where two transcripts first disagree.
func firstDifference(want, got string) string {
	a, b := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return fmt.Sprintf("question %d: want %.120q, got %.120q", i+1, a[i], b[i])
		}
	}
	return fmt.Sprintf("want %d questions, got %d", len(a)-1, len(b)-1)
}
