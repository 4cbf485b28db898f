package workloads

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"gcsafety/internal/cc/parser"
	"gcsafety/internal/codegen"
	"gcsafety/internal/faultinject"
	"gcsafety/internal/gcsafe"
	"gcsafety/internal/interp"
	"gcsafety/internal/machine"
	"gcsafety/internal/peephole"
)

var update = flag.Bool("update", false, "rewrite testdata/sim.golden from the current runs")

const simGolden = "testdata/sim.golden"

type buildMode struct {
	name        string
	annotate    bool
	mode        gcsafe.Mode
	optimize    bool
	postprocess bool
	// adversarial runs under CollectAtEveryAlloc.
	adversarial bool
}

var modes = []buildMode{
	{name: "-O"},
	{name: "-O safe", annotate: true, optimize: true},
	{name: "-g"},
	{name: "-g checked", annotate: true, mode: gcsafe.ModeChecked},
	{name: "-O safe +post", annotate: true, optimize: true, postprocess: true},
}

func init() {
	modes[0].optimize = true
}

func runWorkload(t *testing.T, w Workload, bm buildMode) (*interp.Result, error) {
	t.Helper()
	return interp.Run(buildWorkload(t, w, bm), interp.Options{
		Config:              machine.SPARCstation10(),
		Input:               w.Input,
		Validate:            true,
		CollectAtEveryAlloc: bm.adversarial,
	})
}

func buildWorkload(t *testing.T, w Workload, bm buildMode) *machine.Program {
	t.Helper()
	file, err := parser.Parse(w.Name+".c", w.Source)
	if err != nil {
		t.Fatalf("%s: parse: %v", w.Name, err)
	}
	if bm.annotate {
		if _, err := gcsafe.Annotate(file, gcsafe.Options{Mode: bm.mode}); err != nil {
			t.Fatalf("%s: annotate: %v", w.Name, err)
		}
	}
	cfg := machine.SPARCstation10()
	prog, err := codegen.Compile(file, codegen.Options{Optimize: bm.optimize, Machine: cfg})
	if err != nil {
		t.Fatalf("%s: compile: %v", w.Name, err)
	}
	if bm.postprocess {
		peephole.Optimize(prog, cfg)
	}
	return prog
}

// simRecord is one run's simulated numbers as a sim.golden line: the
// deterministic data every table is built from.
func simRecord(w Workload, bm buildMode, res *interp.Result, err error) string {
	line := fmt.Sprintf("%s %s: instrs=%d cycles=%d collections=%d alloced=%d",
		w.Name, bm.name, res.Instrs, res.Cycles, res.GCStats.Collections, res.GCStats.ObjectsAlloced)
	if err != nil {
		line += " fault=" + err.Error()
	}
	return line
}

// simGoldens pins the simulated numbers of every TestWorkloadsAllModes
// run: check compares one run's record with testdata/sim.golden, and
// write rewrites the file (-update).
type simGoldens struct {
	want map[string]string // key (workload and mode) -> record
	got  []string
}

func loadSimGoldens(t *testing.T) *simGoldens {
	t.Helper()
	g := &simGoldens{want: map[string]string{}}
	if *update {
		return g
	}
	data, err := os.ReadFile(simGolden)
	if err != nil {
		t.Fatalf("%v (rerun with -update to record it)", err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		key, _, _ := strings.Cut(line, ":")
		g.want[key] = line
	}
	return g
}

func (g *simGoldens) check(t *testing.T, line string) {
	t.Helper()
	g.got = append(g.got, line)
	if *update {
		return
	}
	key, _, _ := strings.Cut(line, ":")
	if want := g.want[key]; line != want {
		t.Errorf("simulated numbers differ from %s (rerun with -update if intended)\ngot:  %s\nwant: %s", simGolden, line, want)
	}
}

func (g *simGoldens) write(t *testing.T) {
	t.Helper()
	if !*update {
		return
	}
	sort.Strings(g.got)
	if err := os.WriteFile(simGolden, []byte(strings.Join(g.got, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestWorkloadsAllModes(t *testing.T) {
	golden := loadSimGoldens(t)
	defer golden.write(t)
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			refMode := buildMode{name: "-g reference"}
			ref, err := runWorkload(t, w, refMode)
			golden.check(t, simRecord(w, refMode, ref, err))
			if err != nil {
				t.Fatalf("reference run failed: %v\noutput: %q", err, ref.Output)
			}
			if ref.Output == "" {
				t.Fatal("reference produced no output")
			}
			t.Logf("reference output (%d cycles, %d allocs):\n%s",
				ref.Cycles, ref.GCStats.ObjectsAlloced, ref.Output)
			if ref.Output != w.Want {
				t.Errorf("reference output does not match the pinned golden.\ngot:  %q\nwant: %q", ref.Output, w.Want)
			}
			for _, bm := range modes {
				bm := bm
				t.Run(bm.name, func(t *testing.T) {
					res, err := runWorkload(t, w, bm)
					golden.check(t, simRecord(w, bm, res, err))
					isChecked := bm.mode == gcsafe.ModeChecked && bm.annotate
					if isChecked && w.CheckedFails {
						var ce *interp.CheckError
						if err == nil {
							t.Fatalf("checked build was expected to detect the pointer bug (paper's gawk footnote); output %q", res.Output)
						}
						if !errors.As(err, &ce) {
							t.Fatalf("checked build failed with a non-check error: %v", err)
						}
						return
					}
					if err != nil {
						t.Fatalf("run failed: %v\noutput: %q", err, res.Output)
					}
					if res.Output != ref.Output {
						t.Errorf("output differs from reference.\ngot:  %q\nwant: %q", res.Output, ref.Output)
					}
				})
			}
			t.Run("-O safe adversarial", func(t *testing.T) {
				bm := buildMode{name: "-O safe adversarial", annotate: true, optimize: true, adversarial: true}
				res, err := runWorkload(t, w, bm)
				golden.check(t, simRecord(w, bm, res, err))
				if err != nil {
					t.Fatalf("faulted under collect-at-every-alloc: %v", err)
				}
				if res.Output != ref.Output {
					t.Errorf("output differs from reference under collect-at-every-alloc")
				}
			})
		})
	}
	pinConcurrentRuns(t, golden)
}

func TestWorkloadsAreAllocationIntensive(t *testing.T) {
	// The paper: "All of these programs are very pointer and allocation
	// intensive."
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			res, err := runWorkload(t, w, buildMode{name: "-O", optimize: true})
			if err != nil {
				t.Fatalf("run failed: %v", err)
			}
			if res.GCStats.ObjectsAlloced < 500 {
				t.Errorf("only %d allocations; not allocation-intensive", res.GCStats.ObjectsAlloced)
			}
		})
	}
}

func TestWorkloadsSurviveCollection(t *testing.T) {
	// Force frequent collections and re-check outputs.
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			file, err := parser.Parse(w.Name+".c", w.Source)
			if err != nil {
				t.Fatal(err)
			}
			cfg := machine.SPARCstation10()
			prog, err := codegen.Compile(file, codegen.Options{Optimize: false, Machine: cfg})
			if err != nil {
				t.Fatal(err)
			}
			res, err := interp.Run(prog, interp.Options{
				Config: cfg, Input: w.Input, Validate: true, TriggerBytes: 16 << 10,
			})
			if err != nil {
				t.Fatalf("run failed: %v", err)
			}
			if res.GCStats.Collections == 0 {
				t.Error("no collections happened; the test proves nothing")
			}
			ref, err := runWorkload(t, w, buildMode{name: "-g"})
			if err != nil {
				t.Fatal(err)
			}
			if res.Output != ref.Output {
				t.Errorf("output changed under frequent collection")
			}
		})
	}
}

func TestWorkloadMetadata(t *testing.T) {
	names := map[string]bool{}
	for _, w := range All() {
		if names[w.Name] {
			t.Errorf("duplicate workload %s", w.Name)
		}
		names[w.Name] = true
		if w.Lines < 50 {
			t.Errorf("%s: implausibly small source (%d lines)", w.Name, w.Lines)
		}
		if _, ok := ByName(w.Name); !ok {
			t.Errorf("ByName(%s) failed", w.Name)
		}
	}
	if _, ok := ByName("nonesuch"); ok {
		t.Error("ByName accepted an unknown name")
	}
}

// TestWorkloadsSafeUnderAsyncGC runs the annotated optimized build of every
// workload with collections firing asynchronously between instructions —
// the regime the paper's safety argument must survive on real programs.
func TestWorkloadsSafeUnderAsyncGC(t *testing.T) {
	if testing.Short() {
		t.Skip("async sweep is slow")
	}
	cfg := machine.SPARCstation10()
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			file, err := parser.Parse(w.Name+".c", w.Source)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := gcsafe.Annotate(file, gcsafe.Options{}); err != nil {
				t.Fatal(err)
			}
			prog, err := codegen.Compile(file, codegen.Options{Optimize: true, Machine: cfg})
			if err != nil {
				t.Fatal(err)
			}
			res, err := interp.Run(prog, interp.Options{
				Config:        cfg,
				Input:         w.Input,
				Validate:      true,
				GCEveryInstrs: 4999, // prime cadence: sample many program points
			})
			if err != nil {
				t.Fatalf("faulted under async GC: %v", err)
			}
			if res.Output != w.Want {
				t.Fatalf("output changed under async GC")
			}
			if res.GCStats.Collections < 10 {
				t.Fatalf("only %d collections; regime not exercised", res.GCStats.Collections)
			}
		})
	}
}

// pinConcurrentRuns records the hazard workloads' concurrent runs in
// sim.golden: each build at Threads 2 and 4 under three schedule seeds,
// with and without CollectAtSwitch, plus the edge cases of the quantum
// scheduler — an instruction budget that runs out with a quantum or in
// the middle of one, the interp.step fault point firing on the poll
// schedule inside a quantum, and a one-thread run, which must ignore
// CollectAtSwitch. The records pin the interleaving, so any change to the
// scheduler or the instruction loop that perturbs it shows up here.
func pinConcurrentRuns(t *testing.T, golden *simGoldens) {
	builds := []buildMode{
		{name: "-O", optimize: true},
		{name: "-O safe", annotate: true, optimize: true},
		{name: "-O temporal", annotate: true, mode: gcsafe.ModeTemporal, optimize: true},
	}
	for _, w := range Hazards() {
		w := w
		t.Run("concurrent/"+w.Name, func(t *testing.T) {
			for _, bm := range builds {
				prog := buildWorkload(t, w, bm)
				base := interp.Options{
					Config:        machine.SPARCstation10(),
					Input:         w.Input,
					Validate:      true,
					Temporal:      bm.mode == gcsafe.ModeTemporal,
					GCEveryInstrs: 211,
					TriggerBytes:  8 << 10,
				}
				record := func(label string, opts interp.Options) string {
					res, err := interp.Run(prog, opts)
					line := simRecord(w, buildMode{name: bm.name + " " + label}, res, err)
					golden.check(t, line)
					return line
				}
				for _, threads := range []int{2, 4} {
					for _, seed := range []uint64{0, 1, 7} {
						for _, atSwitch := range []bool{false, true} {
							opts := base
							opts.Threads, opts.SchedSeed, opts.CollectAtSwitch = threads, seed, atSwitch
							label := fmt.Sprintf("mt%d seed%d", threads, seed)
							if atSwitch {
								label += " +switch"
							}
							record(label, opts)
						}
					}
				}
				if w.Name != "escape" {
					continue
				}
				// Seed 1's schedule ends a quantum of main at instruction
				// 3536: a budget that runs out there too yields first, and
				// thread1 takes the fault. 20000 lands mid-quantum.
				for _, budget := range []uint64{3536, 20_000} {
					opts := base
					opts.Threads, opts.SchedSeed, opts.MaxInstrs = 4, 1, budget
					record(fmt.Sprintf("mt4 seed1 max%d", budget), opts)
				}
				faults, err := faultinject.Parse("interp.step=error,after=3", 1)
				if err != nil {
					t.Fatal(err)
				}
				opts := base
				opts.Threads, opts.SchedSeed, opts.Faults = 4, 1, faults
				record("mt4 seed1 interp.step=error,after=3", opts)
				opts = base
				single := record("mt0", opts)
				opts.Threads, opts.CollectAtSwitch = 1, true
				lone := record("mt1 +switch", opts)
				_, want, _ := strings.Cut(single, ": ")
				if _, got, _ := strings.Cut(lone, ": "); got != want {
					t.Errorf("a one-thread run with CollectAtSwitch differs from the single-thread run:\n  %s\n  %s", lone, single)
				}
			}
		})
	}
}
