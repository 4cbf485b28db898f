// Package threaded_test cross-checks the interpreter's two instruction
// paths. A single-thread run goes through the dispatch loop, whose inline
// fast paths re-implement the common opcodes; a concurrent run (Threads > 1)
// goes through the quantum scheduler, which dispatches every opcode through
// the reference Step. Run on a two-thread machine whose only runnable
// thread is the entry, the scheduler executes the very program the
// dispatch loop does — thread 0's stack segment starts at the same stack
// top, and the stack-depth limit is far above anything the workloads use —
// so every observable must be bit-identical.
package threaded_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"gcsafety/internal/cc/parser"
	"gcsafety/internal/codegen"
	"gcsafety/internal/gcsafe"
	"gcsafety/internal/interp"
	"gcsafety/internal/machine"
	"gcsafety/internal/peephole"
	"gcsafety/internal/workloads"
)

// The path contract: for any program, any machine configuration and any
// execution regime, the dispatch loop must produce results bit-identical to
// the scheduler's Step path — output bytes, exit code, instruction and
// cycle counts, GC statistics, and, on failing runs, the same fault at the
// same pc with the same message. These tests drive the contract over the
// benchmark suite and the full hazard catalogue under both benign and
// adversarial collection schedules.

type buildTreatment struct {
	name     string
	annotate bool
	mode     gcsafe.Mode
	optimize bool
	post     bool
}

var buildTreatments = []buildTreatment{
	{name: "debug"},
	{name: "opt", optimize: true},
	{name: "opt-safe", optimize: true, annotate: true, mode: gcsafe.ModeSafe},
	{name: "opt-safe-post", optimize: true, annotate: true, mode: gcsafe.ModeSafe, post: true},
	{name: "checked", annotate: true, mode: gcsafe.ModeChecked},
}

func compile(t *testing.T, src string, tr buildTreatment) *machine.Program {
	t.Helper()
	cfg := machine.SPARCstation10()
	file, err := parser.Parse("equiv.c", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if tr.annotate {
		if _, err := gcsafe.Annotate(file, gcsafe.Options{Mode: tr.mode}); err != nil {
			t.Fatalf("annotate: %v", err)
		}
	}
	prog, err := codegen.Compile(file, codegen.Options{Optimize: tr.optimize, Machine: cfg})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if tr.post {
		peephole.Optimize(prog, cfg)
	}
	return prog
}

// entryOnly returns a copy of prog without its "thread<i>" worker entry
// points, so a concurrent machine runs the entry function alone. Worker
// functions are thread entries only, never called directly.
func entryOnly(prog *machine.Program) *machine.Program {
	q := prog.Clone()
	for name := range q.Funcs {
		if strings.HasPrefix(name, "thread") && name != "thread0" {
			delete(q.Funcs, name)
		}
	}
	return q
}

// stepPath returns the program and options that run prog's single-thread
// execution through the scheduler's Step path. A concurrent regime already
// runs there; its second run checks the scheduler's determinism contract
// (same program, input and seed, bit-identical run).
func stepPath(prog *machine.Program, opts interp.Options) (*machine.Program, interp.Options) {
	if opts.Threads > 1 {
		return prog, opts
	}
	opts.Threads = 2
	return entryOnly(prog), opts
}

// assertPathEquivalence runs prog through the dispatch loop and through
// the Step path and fails unless every observable is identical.
func assertPathEquivalence(t *testing.T, prog *machine.Program, opts interp.Options) {
	t.Helper()
	want, wantErr := interp.Run(prog, opts)
	got, gotErr := interp.Run(stepPath(prog, opts))
	if (wantErr == nil) != (gotErr == nil) ||
		(wantErr != nil && wantErr.Error() != gotErr.Error()) {
		t.Fatalf("paths disagree on outcome:\n  dispatch: %v\n  step:     %v", wantErr, gotErr)
	}
	if want.Output != got.Output {
		t.Errorf("output diverges:\n  dispatch: %q\n  step:     %q", want.Output, got.Output)
	}
	if want.ExitCode != got.ExitCode {
		t.Errorf("exit code diverges: dispatch %d, step %d", want.ExitCode, got.ExitCode)
	}
	if want.Instrs != got.Instrs || want.Cycles != got.Cycles {
		t.Errorf("accounting diverges: dispatch instrs=%d cycles=%d, step instrs=%d cycles=%d",
			want.Instrs, want.Cycles, got.Instrs, got.Cycles)
	}
	if !reflect.DeepEqual(want.GCStats, got.GCStats) {
		t.Errorf("GC statistics diverge:\n  dispatch: %+v\n  step:     %+v", want.GCStats, got.GCStats)
	}
	if (want.Snapshot == nil) != (got.Snapshot == nil) {
		t.Fatalf("snapshot presence diverges: dispatch %v, step %v",
			want.Snapshot != nil, got.Snapshot != nil)
	}
	if want.Snapshot != nil {
		if want.Snapshot.Trigger != got.Snapshot.Trigger ||
			want.Snapshot.Reason != got.Snapshot.Reason ||
			want.Snapshot.FaultAddr != got.Snapshot.FaultAddr {
			t.Errorf("snapshot classification diverges:\n  dispatch: trigger=%q addr=%#x reason=%q\n  step:     trigger=%q addr=%#x reason=%q",
				want.Snapshot.Trigger, want.Snapshot.FaultAddr, want.Snapshot.Reason,
				got.Snapshot.Trigger, got.Snapshot.FaultAddr, got.Snapshot.Reason)
		}
	}
}

// execRegime is one execution configuration the equivalence grid covers.
type execRegime struct {
	name string
	opts interp.Options
}

func execRegimes(w workloads.Workload) []execRegime {
	base := interp.Options{
		Config: machine.SPARCstation10(),
		Input:  w.Input,
	}
	benign := base
	validated := base
	validated.Validate = true
	async := base
	async.Validate = true
	async.GCEveryInstrs = 997
	adversarial := base
	adversarial.Validate = true
	adversarial.CollectAtEveryAlloc = true
	temporal := base
	temporal.Temporal = true
	temporal.HeapProfile = true
	regimes := []execRegime{
		{"benign", benign},
		{"validated", validated},
		{"async", async},
		{"adversarial", adversarial},
		{"temporal", temporal},
	}
	if w.Threads > 1 {
		mt := base
		mt.Threads = w.Threads
		mt.Validate = true
		mt.CollectAtSwitch = true
		regimes = append(regimes, execRegime{"mt-adversarial", mt})
	}
	return regimes
}

// TestEngineEquivalenceHazards drives every hazard workload through the
// treatment × regime grid: the two paths must agree on every violation
// classification (message for message, fault address for fault address)
// as well as on every clean run.
func TestEngineEquivalenceHazards(t *testing.T) {
	for _, w := range workloads.Hazards() {
		for _, tr := range buildTreatments {
			prog := compile(t, w.Source, tr)
			for _, re := range execRegimes(w) {
				t.Run(fmt.Sprintf("%s/%s/%s", w.Name, tr.name, re.name), func(t *testing.T) {
					assertPathEquivalence(t, prog, re.opts)
				})
			}
		}
	}
}

// TestEngineEquivalenceWorkloads covers the Zorn benchmark suite under the
// benign and asynchronous-validated regimes (the adversarial schedules are
// covered per-hazard above; the full suite under collect-at-every-alloc is
// minutes of wall clock).
func TestEngineEquivalenceWorkloads(t *testing.T) {
	for _, w := range workloads.All() {
		for _, tr := range []buildTreatment{
			{name: "opt", optimize: true},
			{name: "opt-safe-post", optimize: true, annotate: true, mode: gcsafe.ModeSafe, post: true},
		} {
			prog := compile(t, w.Source, tr)
			for _, re := range execRegimes(w)[:3] { // benign, validated, async
				t.Run(fmt.Sprintf("%s/%s/%s", w.Name, tr.name, re.name), func(t *testing.T) {
					assertPathEquivalence(t, prog, re.opts)
				})
			}
		}
	}
}
