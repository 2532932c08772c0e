// Command kbcheck validates and diagnoses a knowledge-base file: rule
// well-formedness, weak acyclicity, TGD/CDD compatibility, consistency,
// and the conflict report (with base supports).
//
// Usage:
//
//	kbcheck -kb medical.kb
//	kbcheck -kb medical.kb -conflicts     # list every conflict
//	kbcheck -kb huge.kb -metrics m.json -pprof localhost:6060
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"kbrepair"
	"kbrepair/internal/core"
	"kbrepair/internal/exp"
	"kbrepair/internal/obs"
	"kbrepair/internal/obs/flight"
	"kbrepair/internal/par"
)

func main() {
	defer flight.HandlePanic()
	var (
		kbPath        = flag.String("kb", "", "knowledge-base file (required)")
		listConflicts = flag.Bool("conflicts", false, "list every conflict with its base support")
		explain       = flag.Bool("explain", false, "with -conflicts: print derivation trees for chase-discovered violations")
	)
	obsCfg := obs.AddFlags(flag.CommandLine)
	flightCfg := flight.AddFlags(flag.CommandLine)
	workersFlag := par.AddFlags(flag.CommandLine)
	flag.Parse()
	if err := obs.ValidateFlags(flag.CommandLine, "workers"); err != nil {
		fmt.Fprintln(os.Stderr, "kbcheck:", err)
		os.Exit(2)
	}
	par.Configure(workersFlag)
	if *kbPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	flush, err := obs.SetupCLI(*obsCfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "kbcheck:", err)
		os.Exit(1)
	}
	finish := flight.Setup("kbcheck", *flightCfg)
	obs.SetAttrEnabled(obsCfg.Enabled())
	out := bufio.NewWriter(os.Stdout)
	runErr := run(out, *kbPath, *listConflicts, *explain, *flightCfg)
	if err := out.Flush(); err != nil && runErr == nil {
		runErr = fmt.Errorf("writing output: %w", err)
	}
	if err := finish(); err != nil && runErr == nil {
		runErr = err
	}
	if err := flush(); err != nil && runErr == nil {
		runErr = err
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "kbcheck:", runErr)
		os.Exit(1)
	}
}

func run(w io.Writer, kbPath string, listConflicts, explain bool, fcfg flight.Config) error {
	kb, err := kbrepair.LoadKB(kbPath)
	if err != nil {
		return err
	}
	digest := core.DigestKB(kb)
	flight.SetDigestProvider(func() any { return digest })
	fcfg.Autosize(kb.Facts.Len())
	fmt.Fprintf(w, "%s: %d facts, %d TGDs, %d CDDs\n", kbPath, kb.Facts.Len(), len(kb.TGDs), len(kb.CDDs))
	fmt.Fprintf(w, "TGDs weakly acyclic: %v\n", kbrepair.IsWeaklyAcyclic(kb.TGDs))
	compatible, err := kb.RulesCompatible()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "TGDs compatible with CDDs: %v\n", compatible)

	info, err := kbrepair.DescribeKB(kb)
	if err != nil {
		return err
	}
	exp.WriteInfoTable(w, kbPath, info)

	ok, err := kb.IsConsistent()
	if err != nil {
		return err
	}
	if ok {
		fmt.Fprintln(w, "consistent: yes")
		return nil
	}
	fmt.Fprintln(w, "consistent: NO")
	if listConflicts {
		conflicts, res, err := kb.AllConflicts()
		if err != nil {
			return err
		}
		for i, c := range conflicts {
			fmt.Fprintf(w, "conflict %d: %s with %s\n", i+1, c.CDD, c.Hom)
			for _, f := range c.BaseFacts {
				marker := " "
				if !c.Direct {
					marker = "*" // conflict discovered through the chase
				}
				fmt.Fprintf(w, "  %s %s\n", marker, res.Store.FactRef(f))
			}
			if explain && !c.Direct {
				fmt.Fprintln(w, "  derivations of the violating atoms:")
				for _, f := range c.Facts {
					for _, line := range strings.Split(strings.TrimRight(res.Explain(f), "\n"), "\n") {
						fmt.Fprintf(w, "    %s\n", line)
					}
				}
			}
		}
		fmt.Fprintln(w, "(* = conflict involves chase-derived facts; listed atoms are the base support)")
	}
	return nil
}
