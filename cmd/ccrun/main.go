// Command ccrun compiles a C translation unit for the simulated machine
// and executes it against the conservative collector: the whole pipeline of
// the reproduction in one tool.
//
// Usage:
//
//	ccrun [flags] input.c
//
// Flags:
//
//	-O                 optimize (default true; -O=false is the -g pipeline)
//	-safe              run the GC-safety annotator first
//	-check             run the annotator in checking mode (debugging)
//	-temporal          run the annotator in temporal mode and arm the
//	                   allocation-epoch checker (use-after-free, double
//	                   free and recycled-address reads become violations)
//	-elide             drop annotations the pipeline's liveness analysis
//	                   proves redundant (KEEP_LIVEs whose base is visibly
//	                   live; in -check mode, provably in-bounds checks)
//	-threads n         execute on the concurrent-mutator simulation with
//	                   n deterministic threads (main + thread1..threadN-1)
//	-sched-seed n      interleaving schedule seed (0 = fixed default)
//	-collect-at-switch force a collection at every context switch
//	-post              run the peephole postprocessor
//	-machine name      ss2 | ss10 | p90 (default ss10)
//	-in file           program input (getchar stream)
//	-gc-every n        trigger a collection every n instructions (async regime)
//	-validate          detect accesses to reclaimed objects
//	-timeout d         abort the build+run after a wall-clock duration (0 = none)
//	-max-steps n       abort the run after n executed instructions (0 = default 2e9)
//	-S                 print the assembly listing instead of running
//	-stats             print cycle/GC statistics after the run
//	-stage-report      print the build's per-stage report (stage, cache
//	                   hit or computed, duration) to stderr
//	-faults spec       inject faults into the run (see internal/faultinject;
//	                   e.g. gc.alloc=error,after=100 simulates allocation
//	                   failure, gc.collect.force=error,p=0.1 a hostile
//	                   collection schedule)
//	-fault-seed n      seed for -faults firing schedules (default 1)
//	-heap-profile      record allocation sites and print a heap forensics
//	                   report to stderr after the run: top retainers by
//	                   retained size, each with its allocation site and
//	                   shortest root path (captured at exit, or at the
//	                   violation when a checker aborts the run)
//	-heap-dump file    write the raw heap snapshot as JSON (implies
//	                   -heap-profile's capture without the report)
//	-heap-top n        retainer rows in the -heap-profile report (default 10)
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"

	"gcsafety"
	"gcsafety/internal/faultinject"
	"gcsafety/internal/heapdump"
	"gcsafety/internal/interp"
	"gcsafety/internal/machine"
)

func main() {
	var (
		optimize  = flag.Bool("O", true, "optimize")
		safe      = flag.Bool("safe", false, "annotate for GC-safety")
		check     = flag.Bool("check", false, "annotate for pointer-arithmetic checking")
		elide     = flag.Bool("elide", false, "elide annotations the liveness analysis proves redundant")
		temporal  = flag.Bool("temporal", false, "annotate in temporal mode and arm the epoch checker")
		threads   = flag.Int("threads", 0, "concurrent-mutator thread count (0 or 1 = single-thread)")
		schedSeed = flag.Uint64("sched-seed", 0, "interleaving schedule seed (0 = default)")
		collectSw = flag.Bool("collect-at-switch", false, "collect at every context switch")
		post      = flag.Bool("post", false, "run the peephole postprocessor")
		machname  = flag.String("machine", "ss10", "machine model: ss2, ss10 or p90")
		inFile    = flag.String("in", "", "program input file")
		gcEvery   = flag.Uint64("gc-every", 0, "collect every n instructions")
		validate  = flag.Bool("validate", false, "detect accesses to reclaimed objects")
		timeout   = flag.Duration("timeout", 0, "wall-clock budget for build+run (0 = none)")
		maxSteps  = flag.Uint64("max-steps", 0, "instruction budget for the run (0 = default)")
		baseOnly  = flag.Bool("base-only", false, "collector recognizes heap-stored interior pointers only at object bases (Extensions mode)")
		asm       = flag.Bool("S", false, "print assembly instead of running")
		stats     = flag.Bool("stats", false, "print statistics")
		stageRep  = flag.Bool("stage-report", false, "print the per-stage build report")
		faults    = flag.String("faults", "", "fault injection spec (empty = off)")
		faultSeed = flag.Uint64("fault-seed", 1, "seed for -faults firing schedules")
		heapProf  = flag.Bool("heap-profile", false, "print a heap forensics report after the run")
		heapDump  = flag.String("heap-dump", "", "write the heap snapshot as JSON to this file")
		heapTop   = flag.Int("heap-top", 10, "retainer rows in the -heap-profile report")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: ccrun [flags] input.c")
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
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
	if *heapTop < 0 {
		fmt.Fprintf(os.Stderr, "ccrun: -heap-top: negative row count %d\n", *heapTop)
		os.Exit(2)
	}
	var faultSet *faultinject.Set
	if *faults != "" {
		faultSet, err = faultinject.Parse(*faults, *faultSeed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ccrun: -faults: %v\n", err)
			os.Exit(2)
		}
	}
	p := gcsafety.Pipeline{
		Annotate:    *safe || *check || *temporal,
		Optimize:    *optimize,
		Postprocess: *post,
		Machine:     &cfg,
		Exec: interp.Options{
			Input:           input,
			GCEveryInstrs:   *gcEvery,
			Validate:        *validate,
			Temporal:        *temporal,
			Threads:         *threads,
			SchedSeed:       *schedSeed,
			CollectAtSwitch: *collectSw,
			BaseOnlyHeap:    *baseOnly,
			MaxInstrs:       *maxSteps,
			HeapProfile:     *heapProf || *heapDump != "",
			Faults:          faultSet,
		},
	}
	if *temporal {
		p.AnnotateOptions = gcsafety.Temporal()
	} else if *check {
		p.AnnotateOptions = gcsafety.Checked()
	}
	p.AnnotateOptions.Elide = *elide
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	if faultSet != nil {
		// The build stages (internal/pipeline) read their fault set from
		// the context; the interpreter gets it via Exec.Faults above. Same
		// set both ways, so -faults covers pipeline.<stage> points too.
		ctx = faultinject.WithContext(ctx, faultSet)
	}
	if *asm {
		prog, _, rep, err := gcsafety.BuildWithReportContext(ctx, flag.Arg(0), string(src), p)
		if err != nil {
			fatal(err)
		}
		if *stageRep {
			printStageReport(rep)
		}
		fmt.Print(prog.Listing())
		return
	}
	res, err := gcsafety.RunContext(ctx, flag.Arg(0), string(src), p)
	if *stageRep && res != nil {
		printStageReport(res.Report)
	}
	if res != nil && res.Exec != nil {
		fmt.Print(res.Exec.Output)
		// Heap artifacts are emitted even when the run errored: a checker
		// violation is exactly when the at-violation snapshot matters.
		emitHeapArtifacts(res.Exec, *heapProf, *heapDump, *heapTop)
	}
	if errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(os.Stderr, "ccrun: timeout (%v) exceeded\n", *timeout)
		os.Exit(124)
	}
	if err != nil {
		fatal(err)
	}
	if *stats {
		e := res.Exec
		fmt.Fprintf(os.Stderr, "\n%s: %d instructions, %d cycles, %d collections, %d objects allocated, code size %d\n",
			cfg.Name, e.Instrs, e.Cycles, e.GCStats.Collections, e.GCStats.ObjectsAlloced, res.Program.Size())
	}
	os.Exit(int(res.Exec.ExitCode))
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "ccrun: %v\n", err)
	os.Exit(1)
}

// emitHeapArtifacts writes the end-of-run heap snapshot: the rendered
// forensics report to stderr under -heap-profile, the raw JSON under
// -heap-dump. Capture failures (a fault-injected heapdump.capture point)
// warn but never change the run's outcome.
func emitHeapArtifacts(e *interp.Result, report bool, dumpFile string, topN int) {
	if !report && dumpFile == "" {
		return
	}
	if e.Snapshot == nil {
		if e.SnapshotErr != "" {
			fmt.Fprintf(os.Stderr, "ccrun: heap snapshot lost: %s\n", e.SnapshotErr)
		}
		return
	}
	if dumpFile != "" {
		data, err := json.MarshalIndent(e.Snapshot, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(dumpFile, append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
	}
	if report {
		heapdump.Analyze(e.Snapshot).RenderReport(os.Stderr, topN)
	}
}

// printStageReport renders the stage-graph walk of the build: one line
// per executed stage with its cache disposition and duration.
func printStageReport(rep *gcsafety.BuildReport) {
	if rep == nil {
		return
	}
	fmt.Fprintln(os.Stderr, "ccrun: build stages:")
	for _, st := range rep.Stages {
		disposition := "computed"
		if st.CacheHit {
			disposition = "cached"
		}
		fmt.Fprintf(os.Stderr, "  %-10s %-9s %9.3f ms\n", st.Stage, disposition, st.DurationMs)
	}
	if e := rep.Elision; e != nil {
		fmt.Fprintf(os.Stderr, "ccrun: elision: %d considered, %d elided (%d live, %d bounds), %d kept\n",
			e.Considered, e.Elided, e.ElidedLive, e.ElidedBounds, e.Kept)
	}
}
