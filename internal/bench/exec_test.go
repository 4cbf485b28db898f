package bench

import (
	"errors"
	"testing"

	"gcsafety/internal/cc/parser"
	"gcsafety/internal/codegen"
	"gcsafety/internal/gcsafe"
	"gcsafety/internal/interp"
	"gcsafety/internal/machine"
	"gcsafety/internal/pipeline"
	"gcsafety/internal/workloads"
)

// freshRun builds one slowdown cell without the pipeline or any cache —
// parse, annotate, compile for cfg — and runs it on cfg.
func freshRun(t *testing.T, w workloads.Workload, tr Treatment, cfg machine.Config, profile bool) (*interp.Result, error) {
	t.Helper()
	file, err := parser.Parse(w.Name+".c", w.Source)
	if err != nil {
		t.Fatalf("%s: parse: %v", w.Name, err)
	}
	if tr.Annotate {
		opts := gcsafe.Options{}
		if tr.Checked {
			opts.Mode = gcsafe.ModeChecked
		}
		if _, err := gcsafe.Annotate(file, opts); err != nil {
			t.Fatalf("%s: annotate: %v", w.Name, err)
		}
	}
	prog, err := codegen.Compile(file, codegen.Options{Optimize: tr.Optimize, Machine: cfg})
	if err != nil {
		t.Fatalf("%s: compile: %v", w.Name, err)
	}
	return interp.Run(prog, interp.Options{Config: cfg, Input: w.Input, HeapProfile: profile})
}

// executions counts the runs the pipeline computed since ResetCache.
func executions() uint64 { return pipe.StageStats(pipeline.StageExecute).Misses }

// TestSharedExecutionsMatchFreshRuns checks every slowdown cell on the
// SPARCstation 2 and 10 — which share one execution per treatment and
// price it twice — against a fresh build and run on the cell's own
// machine.
func TestSharedExecutionsMatchFreshRuns(t *testing.T) {
	defer ResetCache()
	ResetCache()
	var cellsMeasured uint64
	for _, cfg := range []machine.Config{machine.SPARCstation2(), machine.SPARCstation10()} {
		for _, w := range workloads.All() {
			for _, tr := range slowdownTreatments(w) {
				m, err := Measure(w, tr, cfg)
				if err != nil {
					t.Fatalf("%s [%s] %s: %v", w.Name, tr.Name, cfg.Name, err)
				}
				cellsMeasured++
				res, err := freshRun(t, w, tr, cfg, false)
				var ce *interp.CheckError
				checkFailed := errors.As(err, &ce)
				if err != nil && !checkFailed {
					t.Fatalf("%s [%s] %s: fresh run: %v", w.Name, tr.Name, cfg.Name, err)
				}
				want := Measurement{CheckFailed: checkFailed, Size: m.Size}
				if !checkFailed {
					want.Cycles = res.Cycles
					want.Instrs = res.Instrs
					want.Output = res.Output
					want.Collections = res.GCStats.Collections
				}
				if *m != want {
					t.Errorf("%s [%s] %s: measured %+v, fresh run %+v", w.Name, tr.Name, cfg.Name, *m, want)
				}
			}
		}
	}
	// The cell cache missed once per cell, and the pipeline ran once per
	// distinct execution: the SPARCstation 10 cells reused every
	// SPARCstation 2 execution.
	if got, want := CacheStats().Misses, cellsMeasured; got != want {
		t.Errorf("cell cache misses = %d, want %d", got, want)
	}
	if got, want := executions(), cellsMeasured/2; got != want {
		t.Errorf("executions = %d, want %d (%d cells)", got, want, cellsMeasured)
	}
}

// TestMeasureRetainedReadsBaselineExecution checks that MeasureRetained
// agrees with a standalone profiled run, and that once the workload's -O
// cell is measured — on either SPARCstation — it costs no run of its own.
func TestMeasureRetainedReadsBaselineExecution(t *testing.T) {
	defer ResetCache()
	ResetCache()
	for _, w := range workloads.All() {
		if _, err := Measure(w, Opt, machine.SPARCstation2()); err != nil {
			t.Fatal(err)
		}
		runs := executions()
		got, err := MeasureRetained(w)
		if err != nil {
			t.Fatal(err)
		}
		if n := executions() - runs; n != 0 {
			t.Errorf("%s: MeasureRetained ran %d executions after the -O cell", w.Name, n)
		}
		res, err := freshRun(t, w, Opt, machine.SPARCstation10(), true)
		if err != nil {
			t.Fatalf("%s: standalone profiled run: %v", w.Name, err)
		}
		if want := retainedAtExit(res.Snapshot); got != want {
			t.Errorf("%s: MeasureRetained = %d, standalone profiled run retains %d", w.Name, got, want)
		}
	}
}
