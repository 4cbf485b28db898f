package gcsafety

// Cold host-time benchmarks, each isolating one layer: the interpreter's
// dispatch loop, a cold daemon request, and a cold build of every paper
// table (the collector's and the optimizer's are BenchmarkCollect in
// internal/gc and BenchmarkOptimize in internal/codegen). The tables'
// cells are simulated cycles, which benchmark/testdata/tables.golden pins
// and cmd/benchtables prints.

import (
	"context"
	"strings"
	"testing"

	"gcsafety/internal/artifact"
	"gcsafety/internal/bench"
	"gcsafety/internal/fuzz"
	"gcsafety/internal/gcsafe"
	"gcsafety/internal/interp"
	"gcsafety/internal/machine"
	"gcsafety/internal/pipeline"
	"gcsafety/internal/workloads"
)

// BenchmarkInterpThroughput measures raw interpreter speed — simulated
// megacycles per host second — on the two heaviest workloads. This is the
// number the dispatch loop in internal/interp/dispatch.go is tuned
// against; EXPERIMENTS.md records its history. The -mt2 variants run the
// same builds on a two-thread machine, where the scheduler drives the
// loop one quantum at a time.
func BenchmarkInterpThroughput(b *testing.B) {
	cfg := machine.SPARCstation10()
	for _, bm := range []struct {
		name    string
		threads int
	}{{"gawk", 0}, {"gs", 0}, {"gawk-mt2", 2}, {"gs-mt2", 2}} {
		w, ok := workloads.ByName(strings.TrimSuffix(bm.name, "-mt2"))
		if !ok {
			b.Fatalf("no workload for %q", bm.name)
		}
		b.Run(bm.name, func(b *testing.B) {
			prog, _, err := Build(w.Name+".c", w.Source, Pipeline{Optimize: true, Machine: &cfg})
			if err != nil {
				b.Fatal(err)
			}
			var cycles uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := interp.Run(prog, interp.Options{Config: cfg, Input: w.Input, Threads: bm.threads})
				if err != nil {
					b.Fatal(err)
				}
				cycles = res.Cycles
			}
			if sec := b.Elapsed().Seconds(); sec > 0 {
				b.ReportMetric(float64(cycles)*float64(b.N)/sec/1e6, "Mcycles/sec")
			}
		})
	}
}

// BenchmarkColdRequest measures what cold daemon /v1/run requests cost the
// host. One iteration serves a batch of eight requests: eight generated
// programs, two rotations of the daemon-cold workload's four treatments.
// Each request takes a fresh stage runner (so every stage key misses),
// builds its program, runs it, and checks the output against the
// generator's model. Every iteration does the same work, so B/op and
// allocs/op do not depend on b.N; a request's share is an eighth.
// EXPERIMENTS.md records their history.
func BenchmarkColdRequest(b *testing.B) {
	cfg := machine.SPARCstation10()
	treatments := []pipeline.Options{
		{Optimize: true},
		{Optimize: true, Annotate: true},
		{Optimize: true, Annotate: true, AnnotateOptions: gcsafe.Options{Elide: true}},
		{Annotate: true, AnnotateOptions: gcsafe.Options{Mode: gcsafe.ModeChecked}},
	}
	progs := make([]*fuzz.Program, 8)
	for i := range progs {
		progs[i] = fuzz.Generate(int64(i)+1, 32)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k, p := range progs {
			opts := treatments[k%len(treatments)]
			opts.Machine = cfg
			built, err := pipeline.NewRunner(artifact.New(0)).Build(ctx, "fuzz.c", p.Source, opts)
			if err != nil {
				b.Fatalf("%s: %v", p.Label, err)
			}
			res, err := interp.RunContext(ctx, built.Prog, interp.Options{Config: cfg})
			if err != nil {
				b.Fatalf("%s: %v", p.Label, err)
			}
			if res.Output != p.Want {
				b.Fatalf("%s: output %q, want %q", p.Label, res.Output, p.Want)
			}
		}
	}
}

// BenchmarkAllTables regenerates every table of the evaluation from a cold
// cache, sequentially (width 1) and with the parallel cell fan-out
// (default width): the three slowdown tables, then the code-size,
// postprocessor, elision and hazard tables on the SPARCstation 10 — the
// same cold build as the repo benchmark's paper-tables operation. The two
// variants produce byte-identical tables — see
// TestTablesParallelDeterministic — so this benchmark is purely about
// wall clock.
func BenchmarkAllTables(b *testing.B) {
	all := func() error {
		for _, cfg := range machine.Configs() {
			if _, err := bench.SlowdownTable(cfg); err != nil {
				return err
			}
		}
		cfg := machine.SPARCstation10()
		for _, table := range []func(machine.Config) (*bench.Table, error){
			bench.CodeSizeTable, bench.PostprocessorTable, bench.ElisionTable, bench.HazardTable,
		} {
			if _, err := table(cfg); err != nil {
				return err
			}
		}
		return nil
	}
	for _, mode := range []struct {
		name  string
		width int
	}{{"seq", 1}, {"par", 0}} {
		b.Run(mode.name, func(b *testing.B) {
			bench.SetParallelism(mode.width)
			defer bench.SetParallelism(0)
			for i := 0; i < b.N; i++ {
				bench.ResetCache()
				if err := all(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
