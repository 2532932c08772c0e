// Command kbrepair runs a user-guided repair session over a knowledge-base
// file. By default the questions are answered interactively on the
// terminal; -auto answers them with the paper's simulated random user, and
// -oracle answers them from a target repair file.
//
// Usage:
//
//	kbrepair -kb medical.kb                      # interactive session
//	kbrepair -kb medical.kb -auto -seed 7        # simulated user
//	kbrepair -kb medical.kb -oracle repaired.kb  # oracle user (§4.1)
//	kbrepair -kb medical.kb -auto -out fixed.kb  # write the repair
//	kbrepair -kb medical.kb -auto -metrics m.json -trace t.jsonl
//	kbrepair -kb medical.kb -auto -timeseries ts.jsonl -pprof localhost:6060
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"kbrepair"
	"kbrepair/internal/core"
	"kbrepair/internal/inquiry"
	"kbrepair/internal/obs"
	"kbrepair/internal/obs/flight"
	"kbrepair/internal/par"
)

func main() {
	defer flight.HandlePanic()
	var (
		kbPath    = flag.String("kb", "", "knowledge-base file (required)")
		stratName = flag.String("strategy", "opti-mcd", "questioning strategy: random | opti-join | opti-prop | opti-mcd")
		auto      = flag.Bool("auto", false, "answer questions with the simulated random user")
		oracleKB  = flag.String("oracle", "", "answer questions from this target-repair file (same fact order as -kb)")
		seed      = flag.Int64("seed", 1, "random seed for strategy tie-breaks and the simulated user")
		outPath   = flag.String("out", "", "write the repaired KB to this file")
		basic     = flag.Bool("basic", false, "use the basic inquiry (Algorithm 3) instead of the two-phase strategy inquiry")
		maxValues = flag.Int("max-values", 0, "cap candidate values per position (0 = unlimited)")
		journal   = flag.String("journal", "", "record the session (questions and answers) to this JSON file")
		replay    = flag.String("replay", "", "answer questions by replaying a recorded session file")
	)
	obsCfg := obs.AddFlags(flag.CommandLine)
	flightCfg := flight.AddFlags(flag.CommandLine)
	workersFlag := par.AddFlags(flag.CommandLine)
	flag.Parse()
	if err := obs.ValidateFlags(flag.CommandLine, "workers"); err != nil {
		fmt.Fprintln(os.Stderr, "kbrepair:", err)
		os.Exit(2)
	}
	par.Configure(workersFlag)
	if *kbPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	flush, err := obs.SetupCLI(*obsCfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "kbrepair:", err)
		os.Exit(1)
	}
	finish := flight.Setup("kbrepair", *flightCfg)
	// Per-rule attribution rides along with the observability outputs: any
	// -metrics/-trace/-pprof/-timeseries run gets a /profilez-able profile.
	obs.SetAttrEnabled(obsCfg.Enabled())
	runErr := run(*kbPath, *stratName, *auto, *oracleKB, *seed, *outPath, *basic, *maxValues, *journal, *replay, *flightCfg)
	if err := finish(); err != nil && runErr == nil {
		runErr = err
	}
	if err := flush(); err != nil && runErr == nil {
		runErr = err
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "kbrepair:", runErr)
		os.Exit(1)
	}
}

func run(kbPath, stratName string, auto bool, oraclePath string, seed int64, outPath string, basic bool, maxValues int, journalPath, replayPath string, fcfg flight.Config) error {
	kb, err := kbrepair.LoadKB(kbPath)
	if err != nil {
		return err
	}
	fmt.Printf("loaded %s: %d facts, %d TGDs, %d CDDs\n",
		kbPath, kb.Facts.Len(), len(kb.TGDs), len(kb.CDDs))
	// Stamp debug bundles with the loaded KB's shape. The digest is computed
	// once, here, so the provider hands the signal handler an immutable value
	// describing the *input* KB, not a racy view of the store mid-repair.
	digest := core.DigestKB(kb)
	flight.SetDigestProvider(func() any { return digest })
	// Now that the KB size is known, grow the flight ring to match (no-op
	// when -flight-events was set explicitly).
	fcfg.Autosize(kb.Facts.Len())

	ok, err := kb.IsConsistent()
	if err != nil {
		return err
	}
	if ok {
		fmt.Println("knowledge base is already consistent; nothing to repair")
		return maybeSave(kb, outPath)
	}
	conflicts, _, err := kb.AllConflicts()
	if err != nil {
		return err
	}
	fmt.Printf("inconsistent: %d conflicts (%d visible without the chase)\n",
		len(conflicts), len(kb.NaiveConflicts()))

	strat, err := kbrepair.StrategyByName(stratName)
	if err != nil {
		return err
	}
	var user kbrepair.User
	switch {
	case replayPath != "":
		j, err := inquiry.LoadJournal(replayPath)
		if err != nil {
			return err
		}
		checked, err := j.CheckKB(kb)
		if err != nil {
			return fmt.Errorf("replaying %s: %w", replayPath, err)
		}
		if !checked {
			fmt.Fprintf(os.Stderr, "kbrepair: warning: %s has no KB digest (recorded by an older build); cannot verify it matches %s\n",
				replayPath, kbPath)
		}
		// The header pins the session: a different strategy or seed would
		// ask different questions and abort on the first mismatch, so the
		// recorded values win over the flags. Headerless journals (Seed 0)
		// keep the flag values, as before the header existed.
		if j.Strategy != "" && j.Strategy != stratName {
			fmt.Printf("replaying with recorded strategy %s (flag said %s)\n", j.Strategy, stratName)
			if strat, err = kbrepair.StrategyByName(j.Strategy); err != nil {
				return err
			}
		}
		if j.Seed != 0 && j.Seed != seed {
			fmt.Printf("replaying with recorded seed %d (flag said %d)\n", j.Seed, seed)
			seed = j.Seed
		}
		user = inquiry.NewReplayUser(j)
		fmt.Printf("replaying %d recorded answers from %s\n", len(j.Entries), replayPath)
	case oraclePath != "":
		target, err := kbrepair.LoadKB(oraclePath)
		if err != nil {
			return err
		}
		if target.Facts.Len() != kb.Facts.Len() {
			return fmt.Errorf("oracle KB has %d facts, input has %d — fact order must match",
				target.Facts.Len(), kb.Facts.Len())
		}
		user = kbrepair.NewOracle(target.Facts, seed)
		fmt.Println("answering with the oracle user")
	case auto:
		user = kbrepair.NewSimulatedUser(seed)
		fmt.Println("answering with the simulated random user")
	default:
		user = terminalUser{in: bufio.NewReader(os.Stdin)}
	}

	var recorder *inquiry.RecordingUser
	if journalPath != "" {
		recorder = inquiry.NewRecordingSession(user, stratName, seed, kb)
		user = recorder
		// Debug bundles of a recording session include the journal-so-far;
		// Snapshot is safe against the session appending concurrently. The
		// provider stays installed past run() so the at-exit bundle carries
		// the finished journal too.
		flight.SetJournalProvider(func() any { return recorder.Snapshot() })
	}
	engine := kbrepair.NewEngine(kb, strat, user, seed, kbrepair.EngineOptions{MaxValuesPerPosition: maxValues})
	var res *kbrepair.InquiryResult
	if basic {
		res, err = engine.RunBasic()
	} else {
		res, err = engine.Run()
	}
	if err != nil {
		return err
	}
	if recorder != nil {
		if err := inquiry.SaveJournal(recorder.Journal(), journalPath); err != nil {
			return err
		}
		fmt.Printf("recorded %d answers to %s\n", len(recorder.Journal().Entries), journalPath)
	}
	fmt.Printf("\nrepair complete: %d questions, consistent=%v, avg delay %s\n",
		res.Questions, res.Consistent, res.AvgDelay())
	fmt.Printf("applied fixes: %s\n", res.AppliedFixes)
	return maybeSave(kb, outPath)
}

func maybeSave(kb *kbrepair.KB, outPath string) error {
	if outPath == "" {
		return nil
	}
	if err := kbrepair.SaveKB(kb, outPath); err != nil {
		return err
	}
	fmt.Printf("wrote repaired KB to %s\n", outPath)
	return nil
}

// terminalUser prints each question and reads the chosen fix number from
// standard input.
type terminalUser struct {
	in *bufio.Reader
}

func (u terminalUser) Choose(kb *core.KB, q inquiry.Question) (core.Fix, error) {
	fmt.Println()
	if q.Conflict != nil {
		fmt.Printf("conflict on %s:\n", q.Conflict.CDD)
		for _, f := range q.Conflict.BaseFacts {
			fmt.Printf("  %s\n", kb.Facts.FactRef(f))
		}
	}
	fmt.Print(q.Describe(kb))
	for {
		fmt.Printf("choose a fix [1-%d]: ", len(q.Fixes))
		line, err := u.in.ReadString('\n')
		if err != nil {
			return core.Fix{}, fmt.Errorf("reading answer: %w", err)
		}
		n, err := strconv.Atoi(strings.TrimSpace(line))
		if err != nil || n < 1 || n > len(q.Fixes) {
			fmt.Println("invalid choice")
			continue
		}
		return q.Fixes[n-1], nil
	}
}
