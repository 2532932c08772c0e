package main

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/metrics"
	"strings"
	"time"

	"kbrepair"
	"kbrepair/internal/core"
	"kbrepair/internal/inquiry"
)

// exchange is one question as the user saw it, and the answer given.
type exchange struct {
	phase   int
	offered core.FixSet
	answer  core.Fix
}

// transcript renders a dialogue in offer order. Two runs of one program on
// one input produce the same transcript byte for byte, null labels
// included.
func transcript(log []exchange) string {
	var b strings.Builder
	for _, x := range log {
		fmt.Fprintf(&b, "%d|", x.phase)
		for i, f := range x.offered {
			if i > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(f.String())
		}
		fmt.Fprintf(&b, "|%s\n", x.answer)
	}
	return b.String()
}

// outcome is what one untraced session measured.
type outcome struct {
	setup time.Duration // ParseKB + inquiry.New
	wall  time.Duration // Run start to return
	// first is the wait for the first question; delays are the waits for
	// every later one, each from the previous answer's return.
	first      time.Duration
	delays     []time.Duration
	allocBytes uint64 // heap bytes allocated during Run
	log        []exchange
}

// runSession runs one repair dialogue the way kbrepair -auto does and
// times it from outside, at the User boundary. The simulated user answers
// at once; the wrapper only stamps the clock and keeps the question.
func runSession(text string, s session) (*outcome, error) {
	o := &outcome{}
	t0 := time.Now()
	sim := inquiry.NewSimulatedUser(s.seed)
	var answered time.Time
	user := inquiry.FuncUser(func(kb *core.KB, q inquiry.Question) (core.Fix, error) {
		asked := time.Now()
		if len(o.log) == 0 {
			o.first = asked.Sub(answered)
		} else {
			o.delays = append(o.delays, asked.Sub(answered))
		}
		f, err := sim.Choose(kb, q)
		o.log = append(o.log, exchange{phase: q.Phase, offered: q.Fixes, answer: f})
		answered = time.Now()
		return f, err
	})
	kb, e, err := setUp(text, s, user)
	if err != nil {
		return nil, err
	}
	o.setup = time.Since(t0)

	allocs := heapAllocBytes()
	start := time.Now()
	answered = start
	res, err := e.Run()
	o.wall = time.Since(start)
	o.allocBytes = heapAllocBytes() - allocs
	if err != nil {
		return nil, fmt.Errorf("run: %w", err)
	}
	if err := checkSession(text, kb, res, o.log); err != nil {
		return nil, err
	}
	return o, nil
}

// errProbeDone stops a probe session at its first question.
var errProbeDone = errors.New("probe: first question reached")

// probeSession sets a session up and runs it to its first question only.
// The heap is collected first, outside the clock, so that set-up is timed
// as in a fresh process rather than against whatever garbage earlier
// sessions left.
func probeSession(text string, s session) (setup, first time.Duration, err error) {
	runtime.GC()
	var start time.Time
	user := inquiry.FuncUser(func(*core.KB, inquiry.Question) (core.Fix, error) {
		first = time.Since(start)
		return core.Fix{}, errProbeDone
	})
	t0 := time.Now()
	_, e, err := setUp(text, s, user)
	if err != nil {
		return 0, 0, err
	}
	setup = time.Since(t0)
	start = time.Now()
	if _, err := e.Run(); !errors.Is(err, errProbeDone) {
		return 0, 0, fmt.Errorf("run to the first question: %v", err)
	}
	return setup, first, nil
}

// setUp is a session's set-up: parse the KB text and build the engine.
func setUp(text string, s session, user inquiry.User) (*core.KB, *inquiry.Engine, error) {
	kb, err := kbrepair.ParseKB(text)
	if err != nil {
		return nil, nil, fmt.Errorf("parse: %w", err)
	}
	strat, err := inquiry.ByName(s.strategy)
	if err != nil {
		return nil, nil, err
	}
	return kb, inquiry.New(kb, strat, user, s.seed, inquiry.Options{}), nil
}

// checkSession verifies a finished session independently of the engine's
// own bookkeeping: the final KB is consistent, the change set is a c-fix of
// the original KB, and every answer was one of the fixes offered.
func checkSession(text string, final *core.KB, res *inquiry.Result, log []exchange) error {
	if !res.Consistent {
		return errors.New("check: engine reports the repaired KB inconsistent")
	}
	if ok, err := final.IsConsistent(); err != nil || !ok {
		return fmt.Errorf("check: repaired KB fails IsConsistent (err %v)", err)
	}
	orig, err := kbrepair.ParseKB(text)
	if err != nil {
		return fmt.Errorf("check: reparse: %w", err)
	}
	diff, err := core.Diff(orig.Facts, final.Facts)
	if err != nil {
		return fmt.Errorf("check: diff: %w", err)
	}
	if ok, err := core.IsCFix(orig, diff); err != nil || !ok {
		return fmt.Errorf("check: the %d changed positions are not a c-fix of the original KB (err %v)", len(diff), err)
	}
	if len(log) != res.Questions || len(res.AppliedFixes) != res.Questions {
		return fmt.Errorf("check: %d questions reached the user, engine reports %d and applied %d",
			len(log), res.Questions, len(res.AppliedFixes))
	}
	for i, x := range log {
		if !x.offered.Contains(x.answer) {
			return fmt.Errorf("check: question %d: answer %s was not offered", i+1, x.answer)
		}
		if res.AppliedFixes[i] != x.answer {
			return fmt.Errorf("check: question %d: engine applied %s, user answered %s", i+1, res.AppliedFixes[i], x.answer)
		}
	}
	return nil
}

// heapAllocBytes reads the cumulative heap allocation counter without
// stopping the world.
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
