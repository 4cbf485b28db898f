package gcsafety

// One testing.B benchmark per table (and figure-equivalent) in the paper's
// evaluation, plus the ablation benches DESIGN.md calls out. Each benchmark
// regenerates its table from scratch — workload build + deterministic
// simulated execution — and reports the table's cells as custom metrics so
// `go test -bench` output carries the reproduced numbers. EXPERIMENTS.md
// records the paper-vs-measured comparison.

import (
	"context"
	"fmt"
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

func reportTable(b *testing.B, t *bench.Table) {
	b.Helper()
	for _, m := range tableMetrics(t) {
		b.ReportMetric(m.value, m.unit)
	}
}

// tableMetric is one table cell as a custom benchmark metric.
type tableMetric struct {
	unit  string
	value float64
}

// tableMetrics turns a table's cells into metrics: percentages as
// %<column>/<workload>, the retained@exit column as
// retained@exit_bytes/<workload>. Cells that render neither (failures,
// unavailable cells, literal text) are left out.
func tableMetrics(t *bench.Table) []tableMetric {
	var ms []tableMetric
	for _, r := range t.Rows {
		for i, c := range r.Cells {
			switch {
			case t.Columns[i] == "retained@exit":
				ms = append(ms, tableMetric{"retained@exit_bytes/" + r.Workload, float64(c.Bytes)})
			case c.Fails || c.Unavail || c.Text != "":
			default:
				ms = append(ms, tableMetric{fmt.Sprintf("%%%s/%s", sanitize(t.Columns[i]), r.Workload), c.Pct})
			}
		}
	}
	return ms
}

func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch r {
		case ' ', ',':
		default:
			out = append(out, r)
		}
	}
	return string(out)
}

// BenchmarkTableSS2 regenerates the paper's first table: running-time
// slowdowns on the SPARCstation 2.
func BenchmarkTableSS2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := bench.SlowdownTable(machine.SPARCstation2())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + t.String())
			reportTable(b, t)
		}
	}
}

// BenchmarkTableSS10 regenerates the SPARCstation 10 running-time table.
func BenchmarkTableSS10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := bench.SlowdownTable(machine.SPARCstation10())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + t.String())
			reportTable(b, t)
		}
	}
}

// BenchmarkTableP90 regenerates the Pentium 90 running-time table.
func BenchmarkTableP90(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := bench.SlowdownTable(machine.Pentium90())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + t.String())
			reportTable(b, t)
		}
	}
}

// BenchmarkTableCodeSize regenerates the object-code expansion table.
func BenchmarkTableCodeSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := bench.CodeSizeTable(machine.SPARCstation10())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + t.String())
			reportTable(b, t)
		}
	}
}

// BenchmarkTablePostprocessor regenerates the final table: residual
// overheads after the peephole postprocessor.
func BenchmarkTablePostprocessor(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := bench.PostprocessorTable(machine.SPARCstation10())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + t.String())
			reportTable(b, t)
		}
	}
}

// BenchmarkTableHazards regenerates the temporal/concurrency extension's
// hazard table: the catalogue of promoted hazard workloads under the safe,
// temporal and concurrent-mutator treatments. Detected bugs ("<fails>")
// carry no metric; the surviving cells report their slowdowns.
func BenchmarkTableHazards(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := bench.HazardTable(machine.SPARCstation10())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + t.String())
			reportTable(b, t)
		}
	}
}

// BenchmarkTableElision regenerates the liveness-elision table: each
// classic treatment next to its elided twin, as slowdowns over the
// optimized baseline. The gawk checked cells must both read "<fails>" —
// elision never drops a check that can fire.
func BenchmarkTableElision(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := bench.ElisionTable(machine.SPARCstation10())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + t.String())
			reportTable(b, t)
		}
	}
}

// BenchmarkAblationCallVsAsm compares the two KEEP_LIVE implementations
// (the paper's "terribly inefficient" opaque call vs. the empty asm).
func BenchmarkAblationCallVsAsm(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := bench.AblationCallVsAsm(machine.SPARCstation10())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + t.String())
			reportTable(b, t)
		}
	}
}

// BenchmarkAblationCopySuppression toggles the paper's optimization (1).
func BenchmarkAblationCopySuppression(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := bench.AblationCopySuppression(machine.SPARCstation10())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + t.String())
			reportTable(b, t)
		}
	}
}

// BenchmarkAblationIncDecExpansion toggles the paper's optimization (2).
func BenchmarkAblationIncDecExpansion(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := bench.AblationIncDecExpansion(machine.SPARCstation10())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + t.String())
			reportTable(b, t)
		}
	}
}

// BenchmarkAblationBaseHeuristic toggles the paper's optimization (3).
func BenchmarkAblationBaseHeuristic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := bench.AblationBaseHeuristic(machine.SPARCstation10())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + t.String())
			reportTable(b, t)
		}
	}
}

// BenchmarkAblationTriggerPolicy measures the collection-trigger regimes
// the paper's optimization (4) discusses: allocation-site-only versus an
// asynchronous collector firing between arbitrary instructions. Both
// regimes execute the annotated cordtest correctly; the metric reports how
// many collections each regime performed.
func BenchmarkAblationTriggerPolicy(b *testing.B) {
	w, _ := workloads.ByName("cordtest")
	cfg := machine.SPARCstation10()
	for i := 0; i < b.N; i++ {
		run := func(async uint64) *interp.Result {
			prog, _, err := Build(w.Name+".c", w.Source, Pipeline{
				Annotate: true, AnnotateOptions: Safe(), Optimize: true, Machine: &cfg,
			})
			if err != nil {
				b.Fatal(err)
			}
			res, err := interp.Run(prog, interp.Options{
				Config: cfg, Input: w.Input, Validate: true,
				TriggerBytes: 16 << 10, GCEveryInstrs: async,
			})
			if err != nil {
				b.Fatal(err)
			}
			if res.Output != w.Want {
				b.Fatalf("wrong output under async=%d", async)
			}
			return res
		}
		callSite := run(0)
		async := run(9973)
		if i == 0 {
			b.ReportMetric(float64(callSite.GCStats.Collections), "collections/allocsite")
			b.ReportMetric(float64(async.GCStats.Collections), "collections/async")
		}
	}
}

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

// BenchmarkWorkloads reports the raw simulated cycle counts of each
// workload at -O, the denominators of every table.
func BenchmarkWorkloads(b *testing.B) {
	cfg := machine.SPARCstation10()
	for _, w := range workloads.All() {
		w := w
		b.Run(w.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m, err := bench.Measure(w, bench.Opt, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(float64(m.Cycles), "simcycles")
					b.ReportMetric(float64(m.Size), "siminstrs")
				}
			}
		})
	}
}

// TestRetainedMetricsAreBytes pins the retained@exit metrics: one per
// workload, named retained@exit_bytes/<workload>, each equal to the
// workload's MeasureRetained byte count.
func TestRetainedMetricsAreBytes(t *testing.T) {
	tbl, err := bench.SlowdownTable(machine.SPARCstation10())
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]float64{}
	for _, m := range tableMetrics(tbl) {
		got[m.unit] = m.value
	}
	var nonzero int
	for _, w := range workloads.All() {
		want, err := bench.MeasureRetained(w)
		if err != nil {
			t.Fatal(err)
		}
		v, ok := got["retained@exit_bytes/"+w.Name]
		if !ok || v != float64(want) {
			t.Errorf("retained@exit_bytes/%s = %v (reported %v), want %d", w.Name, v, ok, want)
		}
		if want > 0 {
			nonzero++
		}
	}
	if nonzero == 0 {
		t.Error("every workload retains 0 bytes at exit; the metric measures nothing")
	}
	for unit := range got {
		if strings.HasPrefix(unit, "%retained") {
			t.Errorf("retained column still reported as a percentage: %s", unit)
		}
	}
}
