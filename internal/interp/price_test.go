package interp

import (
	"errors"
	"reflect"
	"testing"

	"gcsafety/internal/artifact"
	"gcsafety/internal/cc/parser"
	"gcsafety/internal/codegen"
	"gcsafety/internal/faultinject"
	"gcsafety/internal/gcsafe"
	"gcsafety/internal/machine"
	"gcsafety/internal/workloads"
)

// buildWorkload compiles a workload for cfg, annotated in mode when
// annotate is set.
func buildWorkload(t *testing.T, w workloads.Workload, annotate bool, mode gcsafe.Mode, cfg machine.Config) *machine.Program {
	t.Helper()
	file, err := parser.Parse(w.Name+".c", w.Source)
	if err != nil {
		t.Fatalf("%s: parse: %v", w.Name, err)
	}
	if annotate {
		if _, err := gcsafe.Annotate(file, gcsafe.Options{Mode: mode}); err != nil {
			t.Fatalf("%s: annotate: %v", w.Name, err)
		}
	}
	prog, err := codegen.Compile(file, codegen.Options{Optimize: true, Machine: cfg})
	if err != nil {
		t.Fatalf("%s: compile: %v", w.Name, err)
	}
	return prog
}

// withCosts is cfg running under other's cost model: the same program and
// register file, priced differently.
func withCosts(cfg, other machine.Config) machine.Config {
	cfg.Name = other.Name
	cfg.Costs = other.Costs
	return cfg
}

// checkPricing runs prog under opts on its own machine and again under
// each paper machine's cost model, and checks that pricing is the only
// thing the cost model changes: every run executes the same instructions
// and runtime routines, ends the same way, and reports as Cycles exactly
// the first run's counts priced on its own config. The cycle numbers
// themselves are pinned independently, against a per-instruction sum, by
// internal/workloads/testdata/sim.golden.
func checkPricing(t *testing.T, label string, prog *machine.Program, opts Options) {
	t.Helper()
	ref, refErr := Run(prog, opts)
	if ref == nil {
		t.Fatalf("%s: no result: %v", label, refErr)
	}
	var sum uint64
	for _, n := range ref.OpCounts {
		sum += n
	}
	if sum != ref.Instrs {
		t.Errorf("%s: opcode counts sum to %d, want Instrs = %d", label, sum, ref.Instrs)
	}
	if ref.Cycles != ref.Price(opts.Config) {
		t.Errorf("%s: Cycles = %d, priced counts = %d", label, ref.Cycles, ref.Price(opts.Config))
	}
	for _, other := range machine.Configs() {
		o := opts
		o.Config = withCosts(opts.Config, other)
		res, err := Run(prog, o)
		if res == nil {
			t.Fatalf("%s on %s costs: no result: %v", label, other.Name, err)
		}
		if (err == nil) != (refErr == nil) || err != nil && err.Error() != refErr.Error() {
			t.Errorf("%s on %s costs: err = %v, want %v", label, other.Name, err, refErr)
		}
		if res.Instrs != ref.Instrs || res.OpCounts != ref.OpCounts || res.RuntimeCycles != ref.RuntimeCycles {
			t.Errorf("%s on %s costs: the cost model changed what ran", label, other.Name)
		}
		if res.Output != ref.Output || res.GCStats.Collections != ref.GCStats.Collections {
			t.Errorf("%s on %s costs: output or collections differ", label, other.Name)
		}
		if want := ref.Price(o.Config); res.Cycles != want {
			t.Errorf("%s on %s costs: Cycles = %d, repriced = %d", label, other.Name, res.Cycles, want)
		}
	}
}

// TestPriceZornBuilds checks pricing for each Zorn workload's optimized
// build on each paper machine.
func TestPriceZornBuilds(t *testing.T) {
	for _, w := range workloads.All() {
		for _, cfg := range machine.Configs() {
			prog := buildWorkload(t, w, false, gcsafe.ModeSafe, cfg)
			checkPricing(t, w.Name+" on "+cfg.Name, prog, Options{Config: cfg, Input: w.Input})
		}
	}
}

// TestPriceConcurrentRun checks pricing on the quantum scheduler's path.
func TestPriceConcurrentRun(t *testing.T) {
	w := workloads.Escape()
	cfg := machine.SPARCstation10()
	prog := buildWorkload(t, w, true, gcsafe.ModeSafe, cfg)
	checkPricing(t, "escape mt4", prog, Options{Config: cfg, Input: w.Input, Threads: w.Threads})
}

// TestPriceTemporalRun checks pricing on a temporal run, which ends in
// the checker's use-after-free fault.
func TestPriceTemporalRun(t *testing.T) {
	w := workloads.UAF()
	cfg := machine.SPARCstation10()
	prog := buildWorkload(t, w, true, gcsafe.ModeTemporal, cfg)
	opts := Options{Config: cfg, Input: w.Input, Temporal: true}
	if _, err := Run(prog, opts); err == nil {
		t.Fatal("uaf ran clean under the temporal checker; the fault path is not exercised")
	}
	checkPricing(t, "uaf temporal", prog, opts)
}

// TestPriceTruncatedRun checks pricing on a run the instruction budget
// cuts short.
func TestPriceTruncatedRun(t *testing.T) {
	w, _ := workloads.ByName("gawk")
	cfg := machine.SPARCstation2()
	prog := buildWorkload(t, w, false, gcsafe.ModeSafe, cfg)
	opts := Options{Config: cfg, Input: w.Input, MaxInstrs: 100_003}
	if _, err := Run(prog, opts); !errors.Is(err, ErrInstrLimit) {
		t.Fatalf("err = %v, want ErrInstrLimit", err)
	}
	checkPricing(t, "gawk truncated", prog, opts)
}

// TestOptionsKeyCoversEveryRunField: flipping any option a run reads
// changes the run's key, so a new knob needs one field and no key code.
// Faults and Config stay out (see Options.Key): a cost model or a
// machine name must not split a run that Price shares.
func TestOptionsKeyCoversEveryRunField(t *testing.T) {
	const prog = artifact.Key("prog")
	base := Options{Config: machine.SPARCstation10()}
	key := base.Key(prog)
	if base.Key("other prog") == key {
		t.Error("the program key does not reach the run key")
	}
	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		o := base
		f := reflect.ValueOf(&o).Elem().Field(i)
		switch f.Kind() {
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Int, reflect.Int64:
			f.SetInt(3)
		case reflect.Uint32, reflect.Uint64:
			f.SetUint(3)
		case reflect.String:
			f.SetString("x")
		case reflect.Struct:
			o.Config = machine.SPARCstation2()
		case reflect.Pointer:
			o.Faults = faultinject.NewSet(1)
		default:
			t.Fatalf("%s: no flip for kind %s", name, f.Kind())
		}
		ignored := name == "Config" || name == "Faults"
		if changed := o.Key(prog) != key; changed == ignored {
			t.Errorf("flipping %s: run key changed = %v, want %v", name, changed, !ignored)
		}
	}
}
