package bench

import (
	"context"
	"math"
	"strings"
	"sync"
	"testing"

	"gcsafety/internal/machine"
	"gcsafety/internal/workloads"
)

func TestMeasureBasics(t *testing.T) {
	w, _ := workloads.ByName("cordtest")
	cfg := machine.SPARCstation10()
	m, err := Measure(w, Opt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.Cycles == 0 || m.Size == 0 {
		t.Fatalf("empty measurement: %+v", m)
	}
	if !strings.Contains(m.Output, "PASS") {
		t.Fatalf("output: %q", m.Output)
	}
}

// TestSlowdownShape pins the qualitative shape of the running-time tables:
// the safe column is small, -g is larger, checked is much larger — the
// ordering and rough factors of the paper's measurements.
func TestSlowdownShape(t *testing.T) {
	for _, cfg := range machine.Configs() {
		cfg := cfg
		t.Run(cfg.Name, func(t *testing.T) {
			tbl, err := SlowdownTable(cfg)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("\n%s", tbl)
			if len(tbl.Rows) != 4 {
				t.Fatalf("want 4 workloads, got %d", len(tbl.Rows))
			}
			for _, r := range tbl.Rows {
				safe, dbg, chk := r.Cells[0], r.Cells[1], r.Cells[2]
				if safe.Pct < -2 {
					t.Errorf("%s: safe mode cheaper than unsafe (%.1f%%)", r.Workload, safe.Pct)
				}
				if safe.Pct > 60 {
					t.Errorf("%s: safe overhead out of the paper's band (%.1f%%)", r.Workload, safe.Pct)
				}
				if dbg.Unavail {
					if r.Workload != "cfrac" {
						t.Errorf("%s: unexpected unavailable -g column", r.Workload)
					}
					continue
				}
				if dbg.Pct <= safe.Pct {
					t.Errorf("%s: -g (%.1f%%) should cost more than safe (%.1f%%)",
						r.Workload, dbg.Pct, safe.Pct)
				}
				if chk.Fails {
					if r.Workload != "gawk" {
						t.Errorf("%s: unexpected checked failure", r.Workload)
					}
					continue
				}
				if chk.Pct <= dbg.Pct {
					t.Errorf("%s: checked (%.1f%%) should cost more than -g (%.1f%%)",
						r.Workload, chk.Pct, dbg.Pct)
				}
				if chk.Pct < 60 {
					t.Errorf("%s: checked overhead implausibly low (%.1f%%)", r.Workload, chk.Pct)
				}
			}
		})
	}
}

func TestGawkCheckedFailsAndCfracDebugUnavailable(t *testing.T) {
	// The paper's two footnotes must both appear in the table.
	tbl, err := SlowdownTable(machine.SPARCstation10())
	if err != nil {
		t.Fatal(err)
	}
	var sawFails, sawUnavail bool
	for _, r := range tbl.Rows {
		for _, c := range r.Cells {
			if c.Fails && r.Workload == "gawk" {
				sawFails = true
			}
			if c.Unavail && r.Workload == "cfrac" {
				sawUnavail = true
			}
		}
	}
	if !sawFails {
		t.Error("gawk <fails> footnote missing")
	}
	if !sawUnavail {
		t.Error("cfrac '-' footnote missing")
	}
}

func TestCodeSizeShape(t *testing.T) {
	tbl, err := CodeSizeTable(machine.SPARCstation10())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", tbl)
	for _, r := range tbl.Rows {
		safe := r.Cells[0]
		if safe.Pct < 0 || safe.Pct > 60 {
			t.Errorf("%s: safe code-size expansion out of band (%.1f%%)", r.Workload, safe.Pct)
		}
		if r.Cells[1].Unavail {
			continue
		}
		// Robust shape properties (see EXPERIMENTS.md for the known
		// divergence on the -g column's absolute magnitude): debug code is
		// never smaller than optimized code, and checking dominates both.
		if r.Cells[1].Pct < 0 {
			t.Errorf("%s: -g code smaller than -O (%.1f%%)", r.Workload, r.Cells[1].Pct)
		}
		if r.Cells[2].Pct <= safe.Pct {
			t.Errorf("%s: checked size (%.1f%%) should exceed safe (%.1f%%)",
				r.Workload, r.Cells[2].Pct, safe.Pct)
		}
		if r.Cells[2].Pct <= r.Cells[1].Pct {
			t.Errorf("%s: checked size (%.1f%%) should exceed -g (%.1f%%)",
				r.Workload, r.Cells[2].Pct, r.Cells[1].Pct)
		}
	}
}

func TestPostprocessorRecoversPerformance(t *testing.T) {
	cfg := machine.SPARCstation10()
	before, err := SlowdownTable(cfg)
	if err != nil {
		t.Fatal(err)
	}
	after, err := PostprocessorTable(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", after)
	for i, r := range after.Rows {
		post := r.Cells[0].Pct
		safe := before.Rows[i].Cells[0].Pct
		if post > safe+0.5 {
			t.Errorf("%s: postprocessor made things worse (%.1f%% -> %.1f%%)",
				r.Workload, safe, post)
		}
		if post > 10 {
			t.Errorf("%s: residual overhead after postprocessing too high (%.1f%%)",
				r.Workload, post)
		}
		if math.IsNaN(post) {
			t.Errorf("%s: NaN cell", r.Workload)
		}
	}
}

func TestAblationTables(t *testing.T) {
	cfg := machine.SPARCstation10()
	t.Run("CallVsAsm", func(t *testing.T) {
		tbl, err := AblationCallVsAsm(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("\n%s", tbl)
		for _, r := range tbl.Rows {
			if r.Cells[1].Pct < r.Cells[0].Pct {
				t.Errorf("%s: opaque-call KEEP_LIVE (%.1f%%) should cost at least the asm form (%.1f%%)",
					r.Workload, r.Cells[1].Pct, r.Cells[0].Pct)
			}
		}
	})
	t.Run("CopySuppression", func(t *testing.T) {
		tbl, err := AblationCopySuppression(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("\n%s", tbl)
		for _, r := range tbl.Rows {
			if r.Cells[1].Pct+0.5 < r.Cells[0].Pct {
				t.Errorf("%s: disabling copy suppression should not speed things up", r.Workload)
			}
		}
	})
	t.Run("IncDecExpansion", func(t *testing.T) {
		tbl, err := AblationIncDecExpansion(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("\n%s", tbl)
	})
	t.Run("CallSiteOnly", func(t *testing.T) {
		tbl, err := AblationCallSiteOnly(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("\n%s", tbl)
		for _, r := range tbl.Rows {
			if r.Cells[1].Pct > r.Cells[0].Pct+0.5 {
				t.Errorf("%s: call-site-only annotation (%.1f%%) costs more than full annotation (%.1f%%)",
					r.Workload, r.Cells[1].Pct, r.Cells[0].Pct)
			}
		}
	})
	t.Run("BaseHeuristic", func(t *testing.T) {
		tbl, err := AblationBaseHeuristic(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("\n%s", tbl)
	})
}

// TestHazardTableShape pins the hazard table's contract: the temporal
// column reports "<fails>" exactly for the workloads that seed a temporal
// bug (the checker caught it), and every other cell is a finite slowdown —
// in particular the concurrent column reproduces the golden output rather
// than crashing or silently diverging.
func TestHazardTableShape(t *testing.T) {
	tbl, err := HazardTable(machine.SPARCstation10())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", tbl)
	hs := workloads.Hazards()
	if len(tbl.Rows) != len(hs) {
		t.Fatalf("want %d hazard rows, got %d", len(hs), len(tbl.Rows))
	}
	for i, r := range tbl.Rows {
		w := hs[i]
		safe, temporal, conc := r.Cells[0], r.Cells[1], r.Cells[2]
		if temporal.Fails != w.TemporalFails {
			t.Errorf("%s: temporal column Fails=%v, want %v", r.Workload, temporal.Fails, w.TemporalFails)
		}
		if safe.Fails || safe.Pct < -2 || math.IsNaN(safe.Pct) {
			t.Errorf("%s: bad safe cell %v", r.Workload, safe)
		}
		if conc.Fails || math.IsNaN(conc.Pct) {
			t.Errorf("%s: bad concurrent cell %v", r.Workload, conc)
		}
	}
}

// TestRetainedColumn pins the retained-size column: every table row ends
// with the optimized baseline's exit heap shape, the cell agrees with the
// underlying MeasureRetained value, and the workloads that hold data at
// exit report a non-zero value.
func TestRetainedColumn(t *testing.T) {
	cfg := machine.SPARCstation10()
	tbl, err := SlowdownTable(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := tbl.Columns[len(tbl.Columns)-1]; got != "retained@exit" {
		t.Fatalf("last column = %q, want retained@exit", got)
	}
	var nonzero int
	for _, r := range tbl.Rows {
		w, _ := workloads.ByName(r.Workload)
		retained, err := MeasureRetained(w)
		if err != nil {
			t.Fatal(err)
		}
		cell := r.Cells[len(r.Cells)-1]
		if want := retainedCell(retained).Text; cell.Text != want {
			t.Errorf("%s: retained cell %q, want %q", r.Workload, cell.Text, want)
		}
		if retained > 0 {
			nonzero++
		}
	}
	if nonzero == 0 {
		t.Error("no workload retains anything at exit; the column is measuring nothing")
	}
}

// allTreatments is every canonical treatment of the tables.
var allTreatments = []Treatment{
	Opt, OptSafe, Debug, DebugChecked, OptSafePost,
	OptSafeElided, DebugCheckedElided, OptTemporal, OptSafeConcurrent,
}

// TestCellKeySeparatesTreatments: the temporal and concurrent treatments
// do not collide with their classic counterparts, nor cells priced on
// machines that share one execution. (A stage version bump reaching the
// cell key through the build key is TestStageVersionBumpInvalidatesCells.)
func TestCellKeySeparatesTreatments(t *testing.T) {
	w := workloads.All()[0]
	cfg := machine.SPARCstation10()
	if cellKey(w, OptTemporal, cfg) == cellKey(w, OptSafe, cfg) {
		t.Error("temporal treatment collides with the safe treatment")
	}
	if cellKey(w, OptSafeConcurrent, cfg) == cellKey(w, OptSafe, cfg) {
		t.Error("concurrent treatment collides with the single-thread treatment")
	}
	if cellKey(w, Opt, machine.SPARCstation2()) == cellKey(w, Opt, cfg) {
		t.Error("cells priced on different machines collide")
	}
}

// TestResultKeyIsOptionsKey: every table treatment on every machine
// builds to the key its build options derive without building, so the
// cell key names the program the cell measures.
func TestResultKeyIsOptionsKey(t *testing.T) {
	w := workloads.All()[0]
	for _, cfg := range machine.Configs() {
		for _, tr := range allTreatments {
			build, _ := options(w, tr, cfg)
			b, err := pipe.Build(context.Background(), w.Name+".c", w.Source, build)
			if err != nil {
				t.Fatal(err)
			}
			if b.Key != build.Key(w.Name+".c", w.Source) {
				t.Errorf("%s [%s]: Result.Key differs from Options.Key", tr.Name, cfg.Name)
			}
		}
	}
}

// TestCellCacheDedupes pins the artifact-cache contract: a repeated cell
// is served from cache (same Measurement, no recompilation), including
// under concurrency.
func TestCellCacheDedupes(t *testing.T) {
	ResetCache()
	w, _ := workloads.ByName("cordtest")
	cfg := machine.SPARCstation10()
	m1, err := Measure(w, Opt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := CellCompiles(); got != 1 {
		t.Fatalf("compiles after first Measure = %d, want 1", got)
	}
	m2, err := Measure(w, Opt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m1 != m2 {
		t.Fatal("repeated cell was recomputed, not shared")
	}
	if got := CellCompiles(); got != 1 {
		t.Fatalf("compiles after repeat = %d, want 1", got)
	}

	ResetCache()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := Measure(w, OptSafe, cfg); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if got := CellCompiles(); got != 1 {
		t.Fatalf("concurrent identical cells compiled %d times, want 1", got)
	}
}

// TestTablesShareCells pins the satellite requirement: generating every
// table compiles each distinct (workload, treatment, machine) cell once.
// The three per-machine slowdown tables, the code-size table and the
// postprocessor table overlap heavily in cells; the cache collapses the
// overlap.
func TestTablesShareCells(t *testing.T) {
	if testing.Short() {
		t.Skip("generates every table")
	}
	ResetCache()
	cfg := machine.SPARCstation10()
	if _, err := SlowdownTable(cfg); err != nil {
		t.Fatal(err)
	}
	afterSlowdown := CellCompiles()
	if _, err := CodeSizeTable(cfg); err != nil {
		t.Fatal(err)
	}
	if got := CellCompiles(); got != afterSlowdown {
		t.Fatalf("CodeSizeTable recompiled %d cells; all were already measured", got-afterSlowdown)
	}
	if _, err := PostprocessorTable(cfg); err != nil {
		t.Fatal(err)
	}
	// The postprocessor table adds exactly one new treatment (safe+post)
	// per workload.
	want := afterSlowdown + uint64(len(workloads.All()))
	if got := CellCompiles(); got != want {
		t.Fatalf("compiles after all tables = %d, want %d", got, want)
	}
}
