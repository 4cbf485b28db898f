// Command benchtables regenerates every table in the paper's evaluation —
// the three running-time slowdown tables (SPARCstation 2, SPARCstation 10,
// Pentium 90), the object-code size expansion table, and the postprocessor
// table — plus the elision table and the ablation tables DESIGN.md calls
// out.
//
// Usage:
//
//	benchtables [-ablations]
package main

import (
	"flag"
	"fmt"
	"os"

	"gcsafety/internal/bench"
	"gcsafety/internal/machine"
)

func main() {
	ablations := flag.Bool("ablations", false, "also print the ablation tables")
	flag.Parse()

	fmt.Println("Reproduction of the tables in \"Simple Garbage-Collector-Safety\" (Boehm, PLDI 1996).")
	fmt.Println("Numbers are slowdown/expansion percentages relative to the unpreprocessed optimized build.")
	fmt.Println()

	for _, cfg := range machine.Configs() {
		t, err := bench.SlowdownTable(cfg)
		if err != nil {
			fatal(err)
		}
		fmt.Println(t)
	}

	t, err := bench.CodeSizeTable(machine.SPARCstation10())
	if err != nil {
		fatal(err)
	}
	fmt.Println(t)

	t, err = bench.PostprocessorTable(machine.SPARCstation10())
	if err != nil {
		fatal(err)
	}
	fmt.Println(t)

	t, err = bench.ElisionTable(machine.SPARCstation10())
	if err != nil {
		fatal(err)
	}
	fmt.Println(t)

	if !*ablations {
		return
	}
	for _, f := range []func(machine.Config) (*bench.Table, error){
		bench.AblationCallVsAsm,
		bench.AblationCopySuppression,
		bench.AblationIncDecExpansion,
		bench.AblationBaseHeuristic,
		bench.AblationCallSiteOnly,
	} {
		t, err := f(machine.SPARCstation10())
		if err != nil {
			fatal(err)
		}
		fmt.Println(t)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "benchtables: %v\n", err)
	os.Exit(1)
}
