// Command peephole compiles a C translation unit with GC-safety
// annotations and shows the effect of the paper's assembly-level
// postprocessor: the listing before and after, and the static and dynamic
// costs recovered.
//
// Usage:
//
//	peephole [flags] input.c
//
// Flags:
//
//	-machine name   ss2 | ss10 | p90 (default ss10)
//	-fn name        print only the named function's listings
//	-in file        program input for the dynamic measurement
package main

import (
	"flag"
	"fmt"
	"os"

	"gcsafety/internal/cc/parser"
	"gcsafety/internal/codegen"
	"gcsafety/internal/gcsafe"
	"gcsafety/internal/interp"
	"gcsafety/internal/machine"
	"gcsafety/internal/peephole"
)

func main() {
	var (
		machname = flag.String("machine", "ss10", "machine model: ss2, ss10 or p90")
		fnName   = flag.String("fn", "", "print only this function")
		inFile   = flag.String("in", "", "program input file")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: peephole [flags] input.c")
		os.Exit(2)
	}
	srcBytes, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	cfg, ok := machine.ByName(*machname)
	if !ok {
		fatal(fmt.Errorf("unknown machine %q", *machname))
	}
	var input string
	if *inFile != "" {
		b, err := os.ReadFile(*inFile)
		if err != nil {
			fatal(err)
		}
		input = string(b)
	}

	build := func() *machine.Program {
		file, err := parser.Parse(flag.Arg(0), string(srcBytes))
		if err != nil {
			fatal(err)
		}
		if _, err := gcsafe.Annotate(file, gcsafe.Options{}); err != nil {
			fatal(err)
		}
		prog, err := codegen.Compile(file, codegen.Options{Optimize: true, Machine: cfg})
		if err != nil {
			fatal(err)
		}
		return prog
	}

	before := build()
	after := build()
	st := peephole.Optimize(after, cfg)

	show := func(title string, p *machine.Program) {
		fmt.Printf("--- %s (size %d)\n", title, p.Size())
		if *fnName != "" {
			f, ok := p.Funcs[*fnName]
			if !ok {
				fatal(fmt.Errorf("no function %q", *fnName))
			}
			for _, in := range f.Code {
				fmt.Println(in)
			}
			return
		}
		fmt.Print(p.Listing())
	}
	show("before postprocessing", before)
	show("after postprocessing", after)
	fmt.Printf("--- postprocessor: %d adds fused, %d copies removed, %d adds retargeted\n",
		st.Fused, st.CopiesGone, st.Retargeted)

	rb, err := interp.Run(before, interp.Options{Config: cfg, Input: input})
	if err != nil {
		fatal(err)
	}
	ra, err := interp.Run(after, interp.Options{Config: cfg, Input: input})
	if err != nil {
		fatal(err)
	}
	if rb.Output != ra.Output {
		fatal(fmt.Errorf("postprocessing changed program output"))
	}
	fmt.Printf("--- cycles: %d -> %d (%.1f%% recovered)\n", rb.Cycles, ra.Cycles,
		100*float64(rb.Cycles-ra.Cycles)/float64(rb.Cycles))
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "peephole: %v\n", err)
	os.Exit(1)
}
