package main

import (
	"errors"
	"fmt"

	"kbrepair"
	"kbrepair/internal/conflict"
	"kbrepair/internal/core"
	"kbrepair/internal/inquiry"
	"kbrepair/internal/logic"
	"kbrepair/internal/par"
)

// layers are the span names whose self time is a layer's cost. Every other
// span (session, question, user) is the replayer's own glue and lands in
// bench.unattributed_s.
var layers = []string{
	"parser.parse",
	"inquiry.new",
	"conflict.tracker_init",
	"conflict.all",
	"inquiry.pick",
	"inquiry.positions",
	"core.fixgen",
	"core.pi_check",
	"store.set_value",
	"conflict.tracker_update",
	"inquiry.after_answer",
	"chase.final_check",
}

// counts are the per-layer work counters a traced pass reads at the layer
// boundaries.
type counts struct {
	initialConflicts int // tracker size after initial detection
	allCalls         int // KB.AllConflicts calls
	chaseRounds      int // rounds of the chases those calls ran
	derivedFacts     int // facts those chases derived
	candidates       int // candidate fixes generated
	accepted         int // candidates that passed the Π-check
	fastHits         int // Π-RepOpt fast-path verdicts
	fullChecks       int // full Algorithm 1 checks
	trackerUpdates   int // tracker.Update calls
	releases         int // times propagation pins were released
}

// replayer replays Engine.Run (Algorithm 4) through the exported calls it
// makes, wrapping each in a span. Strategies still receive the engine, for
// its RNG and Π; the replayer owns everything Run keeps private: the Π
// checker, the propagation pins and the question loop.
type replayer struct {
	tr   *tracer
	kb   *core.KB
	e    *inquiry.Engine
	pc   *core.PiChecker
	user inquiry.User
	n    *counts
	// Π is always answered ∪ pinned: pinned holds the positions
	// AfterAnswer added (opti-prop's propagation), which ask releases when
	// they starve a question.
	answered, pinned core.Pi
	log              []exchange
	maxQ             int
}

// replaySession runs one session of a traced pass and returns its dialogue.
func replaySession(tr *tracer, text string, s session, n *counts) ([]exchange, error) {
	root := tr.begin("bench.session")
	sp := tr.begin("parser.parse")
	kb, err := kbrepair.ParseKB(text)
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	strat, err := inquiry.ByName(s.strategy)
	if err != nil {
		return nil, err
	}
	user := inquiry.NewSimulatedUser(s.seed)
	// The replayer cannot reach the engine's private checker, so it builds
	// its own; the second plan warm-up hits the plan cache.
	sp = tr.begin("inquiry.new")
	e := inquiry.New(kb, strat, user, s.seed, inquiry.Options{})
	pc := core.NewPiChecker(kb)
	tr.end(sp)
	d := &replayer{tr: tr, kb: kb, e: e, pc: pc, user: user, n: n, answered: core.NewPi(), pinned: core.NewPi(), maxQ: maxQuestions(kb)}
	if err := d.run(); err != nil {
		return nil, err
	}
	n.fastHits += pc.FastHits
	n.fullChecks += pc.FullChecks
	tr.end(root)
	return d.log, nil
}

// maxQuestions mirrors the engine's safety cap for Options{}.
func maxQuestions(kb *core.KB) int {
	return max(4*kb.Facts.NumPositions(), 64)
}

// run is Engine.Run: phase one answers naive conflicts under incremental
// tracking, phase two answers chase-level conflicts with a full re-scan
// after every answer, and a final consistency check closes the session.
func (d *replayer) run() error {
	sp := d.tr.begin("conflict.tracker_init")
	tracker := conflict.NewTracker(d.kb.Facts, d.kb.CDDs)
	d.tr.end(sp)
	d.n.initialConflicts += tracker.Len()
	if _, err := d.allConflicts(); err != nil {
		return err
	}

	for tracker.Len() > 0 {
		q := d.tr.begin("inquiry.question")
		cs := tracker.Conflicts()
		x := d.pick(cs)
		offered, f, err := d.ask(cs, x, 1)
		if err != nil {
			return err
		}
		sp := d.tr.begin("conflict.tracker_update")
		tracker.Update(f.Pos.Fact)
		d.tr.end(sp)
		d.n.trackerUpdates++
		sp = d.tr.begin("inquiry.after_answer")
		d.afterAnswer(tracker.Conflicts(), x, offered, f)
		d.tr.end(sp)
		if err := d.checkCap(); err != nil {
			return err
		}
		d.tr.end(q)
	}

	cs, err := d.allConflicts()
	if err != nil {
		return err
	}
	for len(cs) > 0 {
		q := d.tr.begin("inquiry.question")
		x := d.pick(cs)
		offered, f, err := d.ask(cs, x, 2)
		if err != nil {
			return err
		}
		after, err := d.allConflicts()
		if err != nil {
			return err
		}
		sp := d.tr.begin("inquiry.after_answer")
		d.afterAnswer(after, x, offered, f)
		d.tr.end(sp)
		if err := d.checkCap(); err != nil {
			return err
		}
		d.tr.end(q)
		cs = after
	}

	sp = d.tr.begin("chase.final_check")
	ok, err := d.kb.IsConsistent()
	d.tr.end(sp)
	if err != nil {
		return err
	}
	if !ok {
		return errors.New("replay: session ended inconsistent")
	}
	return nil
}

func (d *replayer) checkCap() error {
	if len(d.log) > d.maxQ {
		return fmt.Errorf("replay: exceeded %d questions", d.maxQ)
	}
	return nil
}

func (d *replayer) allConflicts() ([]*conflict.Conflict, error) {
	sp := d.tr.begin("conflict.all")
	cs, res, err := d.kb.AllConflicts()
	d.tr.end(sp)
	if err != nil {
		return nil, err
	}
	d.n.allCalls++
	d.n.chaseRounds += res.Rounds
	d.n.derivedFacts += res.Store.Len() - res.BaseLen
	return cs, nil
}

func (d *replayer) pick(cs []*conflict.Conflict) *conflict.Conflict {
	sp := d.tr.begin("inquiry.pick")
	x := d.e.Strategy.PickConflict(d.e, cs)
	d.tr.end(sp)
	return x
}

// ask is Engine.ask: retrieve positions, build the sound question, release
// propagation pins and retry on the conflict's full position set if the
// question came out empty, then apply the user's answer.
func (d *replayer) ask(cs []*conflict.Conflict, x *conflict.Conflict, phase int) ([]core.Position, core.Fix, error) {
	sp := d.tr.begin("inquiry.positions")
	positions := d.e.Strategy.Positions(d.e, cs, x)
	d.tr.end(sp)
	fixes, err := d.soundQuestion(positions)
	if err != nil {
		return nil, core.Fix{}, err
	}
	if len(fixes) == 0 && d.release() > 0 {
		sp := d.tr.begin("inquiry.positions")
		positions = x.Positions(d.kb.Facts)
		d.tr.end(sp)
		if fixes, err = d.soundQuestion(positions); err != nil {
			return nil, core.Fix{}, err
		}
	}
	if len(fixes) == 0 {
		return nil, core.Fix{}, fmt.Errorf("replay: %w: conflict %s", inquiry.ErrUnanswerable, x)
	}
	q := inquiry.Question{Conflict: x, Fixes: fixes, Phase: phase}
	sp = d.tr.begin("bench.user")
	f, err := d.user.Choose(d.kb, q)
	d.tr.end(sp)
	if err != nil {
		return nil, core.Fix{}, err
	}
	d.log = append(d.log, exchange{phase: phase, offered: fixes, answer: f})
	if !q.Contains(f) {
		return nil, core.Fix{}, fmt.Errorf("replay: user chose %s, which is not in the question", f)
	}
	sp = d.tr.begin("store.set_value")
	_, err = d.kb.Facts.SetValue(f.Pos, f.Value)
	d.tr.end(sp)
	if err != nil {
		return nil, core.Fix{}, err
	}
	d.e.Pi.Add(f.Pos)
	d.answered.Add(f.Pos)
	return positions, f, nil
}

// soundQuestion is inquiry.SoundQuestion split at its layer boundary: fix
// generation (one fresh null per eligible position, minted in order, then
// the active-domain fan-out) and the Π-check of the whole batch.
func (d *replayer) soundQuestion(positions []core.Position) (core.FixSet, error) {
	sp := d.tr.begin("core.fixgen")
	seen := make(map[core.Position]bool)
	eligible := make([]core.Position, 0, len(positions))
	for _, pos := range positions {
		if d.e.Pi.Has(pos) || seen[pos] {
			continue
		}
		seen[pos] = true
		eligible = append(eligible, pos)
	}
	nulls := make([]logic.Term, len(eligible))
	for i := range eligible {
		nulls[i] = d.kb.Facts.FreshNull()
	}
	perPos := par.MapNamed("inquiry.fixgen", len(eligible), func(i int) core.FixSet {
		vals := core.FixValuesWith(d.kb, eligible[i], nulls[i])
		fs := make(core.FixSet, 0, len(vals))
		for _, v := range vals {
			fs = append(fs, core.Fix{Pos: eligible[i], Value: v})
		}
		return fs
	})
	var cands core.FixSet
	for _, fs := range perPos {
		cands = append(cands, fs...)
	}
	d.tr.end(sp)
	d.n.candidates += len(cands)

	sp = d.tr.begin("core.pi_check")
	sound, err := d.pc.CheckBatch(d.e.Pi, cands)
	d.tr.end(sp)
	if err != nil {
		return nil, err
	}
	var out core.FixSet
	for i, ok := range sound {
		if ok {
			out = append(out, cands[i])
		}
	}
	d.n.accepted += len(out)
	return out, nil
}

// afterAnswer calls the strategy's hook and records any positions it pinned
// into Π, so release can undo them as the engine would.
func (d *replayer) afterAnswer(cs []*conflict.Conflict, x *conflict.Conflict, offered []core.Position, f core.Fix) {
	before := len(d.e.Pi)
	d.e.Strategy.AfterAnswer(d.e, cs, x, offered, f)
	if len(d.e.Pi) == before {
		return
	}
	for p := range d.e.Pi {
		if !d.answered.Has(p) {
			d.pinned.Add(p)
		}
	}
}

// release drops every propagation pin from Π and reports how many there
// were.
func (d *replayer) release() int {
	n := len(d.pinned)
	if n > 0 {
		d.n.releases++
	}
	for p := range d.pinned {
		delete(d.e.Pi, p)
	}
	d.pinned = core.NewPi()
	return n
}
