// Command kbgen generates knowledge bases in the kbrepair text format:
// synthetic KBs per §6 of the paper, or the Durum Wheat substitute.
//
// Usage:
//
//	kbgen -facts 1005 -ratio 0.2 -cdds 15 -out synth.kb
//	kbgen -facts 800 -ratio 0.25 -cdds 50 -tgds 25 -out mixed.kb
//	kbgen -durum 1 -out durum_v1.kb
//	kbgen -facts 100000 -metrics m.json -out big.kb   # with observability
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"kbrepair"
	"kbrepair/internal/obs"
	"kbrepair/internal/obs/flight"
	"kbrepair/internal/par"
)

func main() {
	defer flight.HandlePanic()
	var (
		facts    = flag.Int("facts", 200, "target number of facts")
		ratio    = flag.Float64("ratio", 0.1, "inconsistency ratio (fraction of atoms in conflicts)")
		cdds     = flag.Int("cdds", 10, "number of CDDs")
		tgds     = flag.Int("tgds", 0, "number of TGDs (0 = CDD-only KB)")
		depth    = flag.Int("depth", 0, "TGD chain depth d_K (0 = default)")
		joinVar  = flag.Float64("joinvar", 0.3, "join-variable ratio in CDD bodies")
		preds    = flag.Int("preds", 12, "vocabulary size (predicates)")
		seed     = flag.Int64("seed", 1, "random seed")
		durumVer = flag.Int("durum", 0, "build the Durum Wheat KB instead (1 or 2)")
		outPath  = flag.String("out", "", "output file (default: stdout)")
		quiet    = flag.Bool("quiet", false, "suppress the characteristics report")
	)
	obsCfg := obs.AddFlags(flag.CommandLine)
	flightCfg := flight.AddFlags(flag.CommandLine)
	workersFlag := par.AddFlags(flag.CommandLine)
	flag.Parse()
	if err := obs.ValidateFlags(flag.CommandLine, "workers"); err != nil {
		fmt.Fprintln(os.Stderr, "kbgen:", err)
		os.Exit(2)
	}
	par.Configure(workersFlag)
	flush, err := obs.SetupCLI(*obsCfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "kbgen:", err)
		os.Exit(1)
	}
	finish := flight.Setup("kbgen", *flightCfg)
	runErr := run(os.Stdout, *facts, *ratio, *cdds, *tgds, *depth, *joinVar, *preds, *seed, *durumVer, *outPath, *quiet)
	if err := finish(); err != nil && runErr == nil {
		runErr = err
	}
	if err := flush(); err != nil && runErr == nil {
		runErr = err
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "kbgen:", runErr)
		os.Exit(1)
	}
}

// run generates the KB and writes it to outPath, or to w when outPath is
// empty. Write errors (closed pipe, full disk, unwritable path) are
// returned so main exits non-zero.
func run(w io.Writer, facts int, ratio float64, cdds, tgds, depth int, joinVar float64, preds int, seed int64, durumVer int, outPath string, quiet bool) error {
	var (
		kb   *kbrepair.KB
		info kbrepair.SynthInfo
		err  error
	)
	if durumVer != 0 {
		kb, info, err = kbrepair.BuildDurumWheat(durumVer)
	} else {
		kb, info, err = kbrepair.GenerateSynthetic(kbrepair.SynthParams{
			Seed:               seed,
			NumFacts:           facts,
			InconsistencyRatio: ratio,
			NumCDDs:            cdds,
			NumTGDs:            tgds,
			Depth:              depth,
			JoinVarRatio:       joinVar,
			NumPredicates:      preds,
		})
	}
	if err != nil {
		return err
	}
	text := kbrepair.FormatKB(kb)
	if outPath == "" {
		if _, err := io.WriteString(w, text); err != nil {
			return fmt.Errorf("writing output: %w", err)
		}
	} else if err := os.WriteFile(outPath, []byte(text), 0o644); err != nil {
		return err
	}
	if !quiet {
		fmt.Fprintf(os.Stderr, "facts=%d chase=%d tgds=%d cdds=%d conflicts=%d (naive %d) inconsistency=%.1f%% scope=%.1f\n",
			info.Facts, info.ChaseSize, info.NumTGDs, info.NumCDDs,
			info.TotalConflicts, info.NaiveConflicts, info.InconsistencyRatio*100, info.AvgScope)
	}
	return nil
}
