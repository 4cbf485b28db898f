package main

import (
	_ "embed"
	"fmt"
	"strings"

	"gcsafety/internal/bench"
	"gcsafety/internal/interp"
	"gcsafety/internal/machine"
	"gcsafety/internal/workloads"
)

// goldenTables is every paper table as the paper-tables operation renders
// it, retained@exit column included. Regenerate it with
// `go test -run TestTablesGolden -update` after a change that is meant to
// alter a table.
//
//go:embed testdata/tables.golden
var goldenTables string

// tableCall is one table of the paper-tables operation.
type tableCall struct {
	name string
	fn   func() (*bench.Table, error)
}

// paperTables lists the tables benchtables prints, minus the host-timed
// engine table: the three slowdown tables, then code size, postprocessor,
// elision and hazard tables on the SPARCstation 10.
func paperTables() []tableCall {
	var calls []tableCall
	for _, cfg := range machine.Configs() {
		calls = append(calls, tableCall{"slowdown-" + wireMachine(cfg), func() (*bench.Table, error) { return bench.SlowdownTable(cfg) }})
	}
	ss10 := machine.SPARCstation10()
	return append(calls,
		tableCall{"codesize", func() (*bench.Table, error) { return bench.CodeSizeTable(ss10) }},
		tableCall{"postprocessor", func() (*bench.Table, error) { return bench.PostprocessorTable(ss10) }},
		tableCall{"elision", func() (*bench.Table, error) { return bench.ElisionTable(ss10) }},
		tableCall{"hazard", func() (*bench.Table, error) { return bench.HazardTable(ss10) }},
	)
}

// renderTables builds every table from a cold cache and renders them one
// after another, each followed by a blank line.
func renderTables(tr *tracer, parent int) (string, error) {
	bench.ResetCache()
	var sb strings.Builder
	for _, t := range paperTables() {
		sp := tr.begin("table."+t.name, parent)
		tab, err := t.fn()
		tr.end(sp)
		if err != nil {
			return "", fmt.Errorf("%s table: %w", t.name, err)
		}
		sb.WriteString(tab.String())
		sb.WriteString("\n")
	}
	return sb.String(), nil
}

// tableCells lists every distinct cell the tables measure: 14 per machine
// for the slowdown tables (cfrac has no -g builds), then the postprocessor,
// elision and hazard cells on the SPARCstation 10. The code-size table
// reuses the slowdown cells.
func tableCells() []bench.CellRequest {
	var cells []bench.CellRequest
	add := func(w workloads.Workload, cfg machine.Config, trs ...bench.Treatment) {
		for _, tr := range trs {
			cells = append(cells, bench.CellRequest{Workload: w, Treatment: tr, Machine: cfg})
		}
	}
	for _, cfg := range machine.Configs() {
		for _, w := range workloads.All() {
			add(w, cfg, bench.Opt, bench.OptSafe)
			if !w.DebugUnavailable {
				add(w, cfg, bench.Debug, bench.DebugChecked)
			}
		}
	}
	ss10 := machine.SPARCstation10()
	for _, w := range workloads.All() {
		add(w, ss10, bench.OptSafePost, bench.OptSafeElided)
		if !w.DebugUnavailable {
			add(w, ss10, bench.DebugCheckedElided)
		}
	}
	for _, w := range workloads.Hazards() {
		add(w, ss10, bench.Opt, bench.OptSafe, bench.OptTemporal, bench.OptSafeConcurrent)
	}
	return cells
}

// tablesInst is the paper-tables workload: the reproduction user's cold
// build of every table.
type tablesInst struct {
	cells []bench.CellRequest
	// cycles is the simulated-cycle total of one operation's cells; every
	// operation must repeat it exactly.
	cycles uint64
	acc    counters
}

func setupTables(int64) (instance, error) {
	bench.SetParallelism(2)
	t := &tablesInst{cells: tableCells()}
	// One untimed build warms the process and fixes the cycle total.
	if err := t.op(0, 0, nil, 0); err != nil {
		return nil, err
	}
	return t, nil
}

func (t *tablesInst) clients() int { return 1 }

func (t *tablesInst) op(_, _ int, tr *tracer, parent int) error {
	out, err := renderTables(tr, parent)
	if err != nil {
		return err
	}
	if out != goldenTables {
		return fmt.Errorf("rendered tables differ from testdata/tables.golden: %s", firstDiff(out, goldenTables))
	}
	want := uint64(len(t.cells))
	if n := bench.CellCompiles(); n != want {
		return fmt.Errorf("%d cells computed, want %d", n, want)
	}
	var cycles uint64
	for _, c := range t.cells {
		m, err := bench.Measure(c.Workload, c.Treatment, c.Machine)
		if err != nil {
			return err
		}
		cycles += m.Cycles
	}
	// A cell the tables did not build would have been computed just now.
	if n := bench.CellCompiles(); n != want {
		return fmt.Errorf("the tables built %d of the %d listed cells", want-(n-want), want)
	}
	if t.cycles != 0 && cycles != t.cycles {
		return fmt.Errorf("%d simulated cycles, the first build had %d", cycles, t.cycles)
	}
	t.cycles = cycles

	for _, s := range bench.PipelineStats() {
		t.acc.stageCalls += s.Calls
		t.acc.stageHits += s.Hits
		t.acc.stageComputes += s.Misses
	}
	cs := bench.CacheStats()
	t.acc.cacheHits += cs.Hits
	t.acc.cacheMisses += cs.Misses
	t.acc.evictions += cs.Evictions
	t.acc.cacheBytes = cs.Bytes
	t.acc.cells += bench.CellCompiles()
	return nil
}

func (t *tablesInst) counters() (counters, error) { return t.acc, nil }

// cases replays every cell of one operation; each must reproduce the
// measurement the tables used.
func (t *tablesInst) cases() ([]buildCase, error) {
	var cs []buildCase
	for _, c := range t.cells {
		m, err := bench.Measure(c.Workload, c.Treatment, c.Machine)
		if err != nil {
			return nil, err
		}
		tr := c.Treatment
		cs = append(cs, buildCase{
			label:    fmt.Sprintf("%s [%s] %s", c.Workload.Name, tr.Name, c.Machine.Name),
			file:     c.Workload.Name + ".c",
			src:      c.Workload.Source,
			annotate: annotationOf(tr),
			optimize: tr.Optimize,
			post:     tr.Post,
			elide:    tr.Elide,
			exec: interp.Options{
				Config:    c.Machine,
				Input:     c.Workload.Input,
				Temporal:  tr.Temporal,
				Threads:   tr.Threads,
				SchedSeed: tr.SchedSeed,
			},
			want:      m.Output,
			wantCheck: m.CheckFailed,
		})
	}
	return cs, nil
}

func (t *tablesInst) close() { bench.ResetCache() }

// annotationOf maps a table treatment onto gcsafed's annotation names.
func annotationOf(tr bench.Treatment) string {
	switch {
	case !tr.Annotate:
		return ""
	case tr.Temporal:
		return "temporal"
	case tr.Checked:
		return "checked"
	}
	return "safe"
}

// firstDiff describes the first line where got and want differ.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf("line %d is %q, want %q", i+1, gl, wl)
		}
	}
	return "no line differs"
}
