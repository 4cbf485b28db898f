// Command fuzzcheck drives long differential-fuzzing campaigns from the
// command line: it generates random well-defined C programs from seeded
// deterministic state, runs every one through the full treatment matrix
// ({unannotated, safe, checked} x {-g, -O} x {peephole on/off} x machines,
// plus the adversarial collection schedule), and reports any must-agree
// treatment that diverged from the Go-side model — minimized by the
// delta-debugging reducer before printing.
//
// Usage:
//
//	fuzzcheck [flags]
//
// Flags:
//
//	-n count          number of programs to generate (default 100)
//	-seed s           first seed; programs use seeds s, s+1, ... (default 1)
//	-steps k          operations per generated program (default 8)
//	-machines list    comma-separated subset of ss2,ss10,p90 (default all)
//	-timeout d        wall-clock budget for the whole campaign (0 = none);
//	                  on expiry the campaign stops with exit status 3
//	-max-steps n      instruction budget per treatment run, so a runaway
//	                  generated program cannot hang the campaign (default 50M)
//	-stop             stop at the first violation
//	-reduce           minimize failing programs before reporting (default true)
//	-unsafe           also show premature reclamations of the unannotated
//	                  optimized build (the paper's expected failures)
//	-faults spec      inject faults into every treatment run (see
//	                  internal/faultinject); injected failures in
//	                  must-agree treatments report as violations, turning
//	                  a campaign into a deterministic error-path test
//	-fault-seed n     seed for -faults firing schedules (default 1)
//	-v                print one line per program
//
// Exit status is 1 if any must-agree treatment disagreed with the model.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"gcsafety/internal/faultinject"
	"gcsafety/internal/fuzz"
	"gcsafety/internal/machine"
)

func main() {
	var (
		n          = flag.Int("n", 100, "number of programs")
		seed       = flag.Int64("seed", 1, "first seed")
		steps      = flag.Int("steps", 8, "operations per program")
		machlist   = flag.String("machines", "", "comma-separated machines (ss2,ss10,p90)")
		timeout    = flag.Duration("timeout", 0, "wall-clock budget for the campaign (0 = none)")
		maxSteps   = flag.Uint64("max-steps", 50_000_000, "instruction budget per treatment run")
		stop       = flag.Bool("stop", false, "stop at first violation")
		reduce     = flag.Bool("reduce", true, "minimize failing programs")
		showUnsafe = flag.Bool("unsafe", false, "report unsafe-build reclamations too")
		faults     = flag.String("faults", "", "fault injection spec for every treatment run (empty = off)")
		faultSeed  = flag.Uint64("fault-seed", 1, "seed for -faults firing schedules")
		verbose    = flag.Bool("v", false, "per-program progress")
	)
	flag.Parse()

	machines, err := parseMachines(*machlist)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fuzzcheck:", err)
		os.Exit(2)
	}
	var faultSet *faultinject.Set
	if *faults != "" {
		faultSet, err = faultinject.Parse(*faults, *faultSeed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fuzzcheck: -faults:", err)
			os.Exit(2)
		}
	}
	opt := fuzz.MatrixOptions{Machines: machines, StopOnViolation: *stop, MaxInstrs: *maxSteps, Faults: faultSet}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	violations, unsafeFaults, reclamations := 0, 0, 0
	for i := 0; i < *n; i++ {
		s := *seed + int64(i)
		p := fuzz.Generate(s, *steps)
		m, err := fuzz.RunMatrixContext(ctx, p, opt)
		if errors.Is(err, context.DeadlineExceeded) {
			fmt.Fprintf(os.Stderr, "fuzzcheck: timeout (%v) exceeded after %d programs\n", *timeout, i)
			os.Exit(3)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "fuzzcheck: harness failure: %v\n", err)
			os.Exit(2)
		}
		if *verbose {
			fmt.Printf("seed %d: %d treatments, %d violations, %d unsafe failures\n",
				s, len(m.Results), len(m.Violations), len(m.UnsafeFailures))
		}
		unsafeFaults += len(m.UnsafeFailures)
		reclamations += m.PrematureReclamations()
		if *showUnsafe {
			for _, r := range m.UnsafeFailures {
				if fuzz.IsReclamationFault(r.Err) {
					fmt.Printf("seed %d [%s] premature reclamation (expected for this treatment): %v\n",
						s, r.Name(), r.Err)
				}
			}
		}
		if len(m.Violations) > 0 {
			violations += len(m.Violations)
			report(p, m.Violations, *reduce)
			if *stop {
				break
			}
		}
	}
	fmt.Printf("fuzzcheck: %d programs, %d violations, %d tolerated unsafe-build failures (%d premature reclamations)\n",
		*n, violations, unsafeFaults, reclamations)
	if violations > 0 {
		os.Exit(1)
	}
}

func report(p *fuzz.Program, rs []fuzz.TreatmentResult, minimize bool) {
	fmt.Println("=== VIOLATION ===")
	fmt.Print(fuzz.Describe(p, rs))
	if minimize {
		reduced := fuzz.ReduceViolation(p, rs[0])
		fmt.Printf("minimized repro (%d lines):\n%s\n", fuzz.CountLines(reduced), reduced)
	}
}

func parseMachines(list string) ([]machine.Config, error) {
	if list == "" {
		return nil, nil // matrix default: all machines
	}
	var out []machine.Config
	for _, name := range strings.Split(list, ",") {
		cfg, ok := machine.ByName(strings.TrimSpace(name))
		if !ok {
			return nil, fmt.Errorf("unknown machine %q (want ss2, ss10 or p90)", name)
		}
		out = append(out, cfg)
	}
	return out, nil
}
