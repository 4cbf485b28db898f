// Command gcsafe is the paper's C-to-C preprocessor: it reads a C
// translation unit and writes the same program annotated for GC-safety
// (KEEP_LIVE) or for run-time pointer-arithmetic checking (GC_same_obj).
// It is intended to run "between the normal C preprocessor (macro-expander)
// and the C compiler".
//
// Usage:
//
//	gcsafe [flags] [input.c]
//
// With no input file, standard input is read. The rewritten program goes
// to standard output (or -o); source-checking warnings go to stderr.
//
// Flags:
//
//	-mode safe|check|temporal   annotation mode (default safe)
//	-style macro|asm   KEEP_LIVE expansion style (default macro)
//	-o file            output file
//	-no-opt1           disable copy suppression (paper optimization 1)
//	-no-opt2           disable the specialized ++/-- expansion (optimization 2)
//	-base-heuristic    enable the slowly-varying-base substitution (optimization 3)
//	-elide             drop annotations the liveness analysis proves
//	                   redundant (in check mode only provably in-bounds
//	                   checks, so detection power is unchanged)
//	-stats             print annotation statistics to stderr
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"gcsafety"
	"gcsafety/internal/pipeline"
)

func main() {
	var (
		mode      = flag.String("mode", "safe", "annotation mode: safe, check or temporal")
		style     = flag.String("style", "macro", "KEEP_LIVE expansion style: macro or asm")
		out       = flag.String("o", "", "output file (default stdout)")
		noOpt1    = flag.Bool("no-opt1", false, "disable copy suppression")
		noOpt2    = flag.Bool("no-opt2", false, "disable the specialized ++/-- expansion")
		heuristic = flag.Bool("base-heuristic", false, "enable the base-pointer heuristic")
		callsite  = flag.Bool("call-site-gc", false, "assume collections only at call sites (optimization 4)")
		strict    = flag.Bool("strict-casts", false, "warn on structure-pointer casts that change pointer layout")
		elide     = flag.Bool("elide", false, "elide annotations the liveness analysis proves redundant")
		stats     = flag.Bool("stats", false, "print annotation statistics")
	)
	flag.Parse()

	if *mode == "check" {
		*mode = "checked" // the flag's historical spelling
	}
	opts, err := pipeline.AnnotateSpec{
		Mode: *mode, Style: *style, NoCopySuppression: *noOpt1, NoIncDecExpansion: *noOpt2,
		BaseHeuristic: *heuristic, CallSiteOnly: *callsite, StrictCasts: *strict, Elide: *elide,
	}.AnnotateOptions()
	if err != nil {
		fmt.Fprintf(os.Stderr, "gcsafe: %v\n", err)
		os.Exit(2)
	}

	name := "<stdin>"
	var src []byte
	if flag.NArg() > 0 {
		name = flag.Arg(0)
		src, err = os.ReadFile(name)
	} else {
		src, err = io.ReadAll(os.Stdin)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "gcsafe: %v\n", err)
		os.Exit(1)
	}

	// Annotation runs through the root API's stage-graph pipeline, sharing
	// the lex/parse/typecheck artifacts with any other build of the same
	// source in this process.
	res, err := gcsafety.Annotate(name, string(src), opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gcsafe: %v\n", err)
		os.Exit(1)
	}
	for _, w := range res.Warnings {
		fmt.Fprintln(os.Stderr, w)
	}
	if *stats {
		fmt.Fprintf(os.Stderr, "gcsafe: %d annotations inserted, %d suppressed (optimization 1), %d temporaries\n",
			res.Inserted, res.Suppressed, res.Temps)
		if *elide {
			fmt.Fprintf(os.Stderr, "gcsafe: %d elided by liveness (%d live, %d bounds) of %d considered\n",
				res.Elided, res.ElidedLive, res.ElidedBounds, res.Considered)
		}
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gcsafe: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	if _, err := io.WriteString(w, res.Output); err != nil {
		fmt.Fprintf(os.Stderr, "gcsafe: %v\n", err)
		os.Exit(1)
	}
}
