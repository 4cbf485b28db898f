// Package bench is the measurement harness for the evaluation: it builds
// each workload under the paper's compilation treatments, executes it on a
// machine model, and regenerates every table of the paper's Performance,
// Analysis and Postprocessor sections (see EXPERIMENTS.md for the
// paper-vs-measured record).
package bench

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync/atomic"

	"gcsafety/internal/artifact"
	"gcsafety/internal/gcsafe"
	"gcsafety/internal/heapdump"
	"gcsafety/internal/interp"
	"gcsafety/internal/machine"
	"gcsafety/internal/pipeline"
	"gcsafety/internal/workloads"
)

// Treatment is one compilation configuration measured in the paper.
type Treatment struct {
	Name     string
	Annotate bool
	Checked  bool
	Optimize bool
	Post     bool
	// Temporal selects the temporal annotation mode (free→GC_free plus
	// checked-mode pointer validation) and the interpreter's epoch checker.
	Temporal bool
	// Threads runs the cell on a concurrent-mutator simulation with this
	// many threads (0 or 1 = the single-thread interpreter).
	Threads int
	// SchedSeed selects the interleaving of a concurrent cell
	// (0 = the interpreter's fixed default schedule).
	SchedSeed uint64
	// Elide turns on the liveness-based elision analysis: KEEP_LIVE
	// annotations (and, in checked mode, provably in-bounds GC_same_obj
	// checks) that the pipeline's Liveness stage proves redundant are
	// dropped before codegen.
	Elide bool
	// Gcsafe overrides the default annotator options (ablations).
	Gcsafe *gcsafe.Options
}

// Canonical treatments, named as in the paper's tables.
var (
	Opt          = Treatment{Name: "-O", Optimize: true}
	OptSafe      = Treatment{Name: "-O, safe", Optimize: true, Annotate: true}
	Debug        = Treatment{Name: "-g"}
	DebugChecked = Treatment{Name: "-g, checked", Annotate: true, Checked: true}
	OptSafePost  = Treatment{Name: "-O, safe+post", Optimize: true, Annotate: true, Post: true}
)

// Treatments of the liveness-elision axis (the elision table).
var (
	// OptSafeElided is the safe production build with redundant KEEP_LIVE
	// annotations elided by the liveness analysis.
	OptSafeElided = Treatment{Name: "-O, safe-elided", Optimize: true, Annotate: true, Elide: true}
	// DebugCheckedElided is the checked debugging build with provably
	// in-bounds GC_same_obj checks elided; every check that can fire is
	// kept, so its detection power matches -g, checked exactly.
	DebugCheckedElided = Treatment{Name: "-g, checked-elided", Annotate: true, Checked: true, Elide: true}
)

// Treatments of the temporal/concurrency extension (the hazard table).
var (
	// OptTemporal is the temporal checker build: optimized, annotated in
	// temporal mode, executed with allocation-epoch checking on.
	OptTemporal = Treatment{Name: "-O, temporal", Optimize: true, Annotate: true, Temporal: true}
	// OptSafeConcurrent runs the safe production build on the
	// four-thread concurrent-mutator simulation at the default schedule.
	OptSafeConcurrent = Treatment{Name: "-O, safe, mt4", Optimize: true, Annotate: true, Threads: 4}
)

// Measurement is the result of one (workload, treatment, machine) cell.
type Measurement struct {
	Cycles      uint64
	Instrs      uint64
	Size        int // static instruction count of processed code
	Output      string
	CheckFailed bool // the pointer-arithmetic checker fired (gawk)
	Collections uint64
}

// cells is the harness's artifact cache. Every (workload, treatment,
// machine) cell is fully deterministic — same compile, same cycle counts —
// so the whole Measurement is content-addressed by the cell's inputs and
// computed once, no matter how many tables ask for it. Before this cache
// each table recompiled (and re-ran) its baseline and repeated cells from
// scratch; see EXPERIMENTS.md ("Artifact-cache speedup") for the measured
// effect. Unbounded: the cell space is the small finite treatment matrix.
var cells = artifact.New(0)

// pipe is the stage-graph pipeline behind every cell build and run.
// Cells cache whole Measurements; the pipeline underneath additionally
// shares the per-stage artifacts between cells, so the 3 tables x 4
// treatments x 3 machines of a full MeasureAll lex, parse and typecheck
// each workload exactly once, and run each program once per cost model.
var pipe = pipeline.NewRunner(artifact.New(0))

// cellCompiles counts the cells actually built and run (cache misses).
var cellCompiles atomic.Uint64

// CellCompiles reports how many cells have been measured for real since
// the last ResetCache (the rest were cache hits).
func CellCompiles() uint64 { return cellCompiles.Load() }

// CacheStats exposes the cell cache's counters.
func CacheStats() artifact.Stats { return cells.Stats() }

// PipelineStats exposes the per-stage counters of the pipeline under the
// cell cache (tests assert front-end sharing on these).
func PipelineStats() []pipeline.StageStat { return pipe.Stats() }

// ResetCache drops every cached cell and stage artifact (benchmarks that
// want to time the cold path).
func ResetCache() {
	cells = artifact.New(0)
	pipe = pipeline.NewRunner(artifact.New(0))
	cellCompiles.Store(0)
}

// options spells one cell as the pipeline's build options and the
// executor's run options: the two halves every cell key derives from.
func options(w workloads.Workload, tr Treatment, cfg machine.Config) (pipeline.Options, interp.Options) {
	ann := gcsafe.Options{}
	if tr.Gcsafe != nil {
		ann = *tr.Gcsafe
	}
	if tr.Temporal {
		ann.Mode = gcsafe.ModeTemporal
	} else if tr.Checked {
		ann.Mode = gcsafe.ModeChecked
	}
	if tr.Elide {
		ann.Elide = true
	}
	build := pipeline.Options{
		Annotate:        tr.Annotate,
		AnnotateOptions: ann,
		Optimize:        tr.Optimize,
		Post:            tr.Post,
		Machine:         cfg,
	}
	run := interp.Options{
		Config:      cfg,
		Input:       w.Input,
		Temporal:    tr.Temporal,
		Threads:     tr.Threads,
		SchedSeed:   tr.SchedSeed,
		HeapProfile: profiled(tr, cfg),
	}
	return build, run
}

// cellKey is the key of the cell's execution — the build's final stage
// key plus the run options, so shipping a changed stage recomputes every
// cell built through it — plus what the Measurement adds on top: the
// expected output it is checked against, and the machine whose cost model
// prices it.
func cellKey(w workloads.Workload, tr Treatment, cfg machine.Config) artifact.Key {
	build, run := options(w, tr, cfg)
	return artifact.NewKey("bench-cell").Str(string(run.Key(build.Key(w.Name+".c", w.Source)))).Str(w.Want).Str(cfg.Name).Sum()
}

// Measure returns one cell's measurement, computing it at most once per
// distinct cell across all tables (and all concurrent callers). The
// returned Measurement is shared: callers must not mutate it.
func Measure(w workloads.Workload, tr Treatment, cfg machine.Config) (*Measurement, error) {
	v, _, err := cells.GetOrCompute(context.Background(), cellKey(w, tr, cfg), func() (any, int64, error) {
		cellCompiles.Add(1)
		m, err := measureCell(w, tr, cfg)
		if err != nil {
			return nil, 0, err
		}
		return m, int64(len(m.Output)) + 128, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*Measurement), nil
}

// measureCell builds one cell and executes it, priced on the cell's
// machine.
func measureCell(w workloads.Workload, tr Treatment, cfg machine.Config) (*Measurement, error) {
	b, res, err := execute(w, tr, cfg)
	if b == nil {
		return nil, err
	}
	m := &Measurement{Size: b.Prog.Size()}
	var ce *interp.CheckError
	if errors.As(err, &ce) {
		m.CheckFailed = true
		return m, nil
	}
	if err != nil {
		return nil, fmt.Errorf("%s [%s]: %w", w.Name, tr.Name, err)
	}
	m.Cycles = res.Cycles
	m.Instrs = res.Instrs
	m.Output = res.Output
	m.Collections = res.GCStats.Collections
	if w.Want != "" && res.Output != w.Want {
		return nil, fmt.Errorf("%s [%s]: wrong output", w.Name, tr.Name)
	}
	return m, nil
}

// execute builds and runs one cell on the pipeline, priced on cfg. A nil
// build result means the build failed; otherwise the error is the run's.
func execute(w workloads.Workload, tr Treatment, cfg machine.Config) (*pipeline.Result, *interp.Result, error) {
	build, run := options(w, tr, cfg)
	b, err := pipe.Build(context.Background(), w.Name+".c", w.Source, build)
	if err != nil {
		var se *pipeline.StageError
		if errors.As(err, &se) {
			return nil, nil, fmt.Errorf("%s: %s: %w", w.Name, se.Phase(), se.Err)
		}
		return nil, nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	res, _, err := pipe.Execute(context.Background(), b.Prog, b.Key, run)
	return b, res, err
}

// profiled reports whether a cell's execution is the one MeasureRetained
// reads: the unannotated optimized baseline on the SPARCstations, which
// share one run. The pipeline keeps a run's snapshot with it, so the
// Pentium 90 baseline, whose snapshot nothing reads, runs unprofiled.
func profiled(tr Treatment, cfg machine.Config) bool {
	return tr.Optimize && !tr.Annotate && !tr.Post && !tr.Temporal && tr.Threads <= 1 &&
		cfg.Name != machine.Pentium90().Name
}

// MeasureRetained returns the total retained size of the live heap at the
// workload's exit — the sum over the dominator tree's root-dominated
// objects of an end-of-run heapdump snapshot — measured on the optimized
// baseline build (treatments change code, not the workload's data
// structures). The baseline's execution on the SPARCstations runs with
// the allocation-site profiler, and the pipeline keeps its snapshot, so
// reading it costs no run of its own once the workload's -O cell is
// measured on either of them. The exit heap does not depend on the cost
// model; it is read on the canonical SPARCstation 10.
func MeasureRetained(w workloads.Workload) (uint64, error) {
	_, res, err := execute(w, Opt, machine.SPARCstation10())
	if err != nil {
		return 0, fmt.Errorf("%s [retained]: %w", w.Name, err)
	}
	return retainedAtExit(res.Snapshot), nil
}

// retainedAtExit sums the retained sizes of the root-dominated objects of
// the end-of-run snapshot — the bytes the roots would lose if severed,
// i.e. the total reachable heap at exit.
func retainedAtExit(s *heapdump.Snapshot) uint64 {
	if s == nil {
		return 0
	}
	a := heapdump.Analyze(s)
	var sum uint64
	for i, idom := range a.Dom.Idom {
		if idom == a.Dom.Root {
			sum += a.Dom.Retained[i]
		}
	}
	return sum
}

// Cell is one formatted table entry.
type Cell struct {
	Pct       float64 // slowdown or expansion percentage
	Fails     bool    // "<fails>" (gawk checked)
	Unavail   bool    // "-" (cfrac -g)
	FailsNote string
	// Text renders literally when non-empty: the retained-size column is
	// an absolute value, not a percentage.
	Text string
	// Bytes is the byte count a retained-size cell renders.
	Bytes uint64
}

func (c Cell) String() string {
	switch {
	case c.Text != "":
		return c.Text
	case c.Fails:
		return "<fails>"
	case c.Unavail:
		return "-"
	default:
		return fmt.Sprintf("%.0f%%", c.Pct)
	}
}

// retainedCell renders a workload's exit heap shape (MeasureRetained) for
// the tables' retained column.
func retainedCell(retained uint64) Cell {
	return Cell{Text: heapdump.Comma(retained) + "B", Bytes: retained}
}

// Row is one workload's row in a table.
type Row struct {
	Workload string
	Cells    []Cell
}

// Table is one reproduced paper table.
type Table struct {
	Title   string
	Columns []string
	Rows    []Row
}

// String renders the table in the paper's layout.
func (t *Table) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n", t.Title)
	fmt.Fprintf(&sb, "%-10s", "")
	for _, c := range t.Columns {
		fmt.Fprintf(&sb, "%-16s", c)
	}
	sb.WriteString("\n")
	for _, r := range t.Rows {
		fmt.Fprintf(&sb, "%-10s", r.Workload)
		for _, c := range r.Cells {
			fmt.Fprintf(&sb, "%-16s", c.String())
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// slowdownTreatments is the cell set of the slowdown and code-size tables:
// every workload needs the optimized baseline and the safe build, and all
// but the debug-unavailable ones (cfrac) need the two debug builds too.
func slowdownTreatments(w workloads.Workload) []Treatment {
	if w.DebugUnavailable {
		return []Treatment{Opt, OptSafe}
	}
	return []Treatment{Opt, OptSafe, Debug, DebugChecked}
}

func pct(mode, base uint64) float64 {
	if base == 0 {
		return math.NaN()
	}
	return (float64(mode)/float64(base) - 1) * 100
}

// SlowdownTable reproduces the paper's per-machine running-time tables
// (SPARCstation 2, SPARC 10, Pentium 90): "slowdown percentages relative to
// the unpreprocessed optimized version" for GC-safe code, fully debuggable
// code, and debuggable code with pointer-arithmetic checks.
func SlowdownTable(cfg machine.Config) (*Table, error) {
	t := &Table{
		Title:   cfg.Name + ":",
		Columns: []string{"-O, safe", "-g", "-g, checked", "retained@exit"},
	}
	if err := prefetch(cfg, slowdownTreatments); err != nil {
		return nil, err
	}
	for _, w := range workloads.All() {
		base, err := Measure(w, Opt, cfg)
		if err != nil {
			return nil, err
		}
		retained, err := MeasureRetained(w)
		if err != nil {
			return nil, err
		}
		row := Row{Workload: w.Name}
		safe, err := Measure(w, OptSafe, cfg)
		if err != nil {
			return nil, err
		}
		row.Cells = append(row.Cells, Cell{Pct: pct(safe.Cycles, base.Cycles)})
		if w.DebugUnavailable {
			row.Cells = append(row.Cells, Cell{Unavail: true}, Cell{Unavail: true}, retainedCell(retained))
			t.Rows = append(t.Rows, row)
			continue
		}
		dbg, err := Measure(w, Debug, cfg)
		if err != nil {
			return nil, err
		}
		row.Cells = append(row.Cells, Cell{Pct: pct(dbg.Cycles, base.Cycles)})
		chk, err := Measure(w, DebugChecked, cfg)
		if err != nil {
			return nil, err
		}
		if chk.CheckFailed {
			row.Cells = append(row.Cells, Cell{Fails: true})
		} else {
			row.Cells = append(row.Cells, Cell{Pct: pct(chk.Cycles, base.Cycles)})
		}
		row.Cells = append(row.Cells, retainedCell(retained))
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// CodeSizeTable reproduces the object-code expansion table: static
// instruction counts of the processed code only, "not the standard
// libraries", relative to the optimized build.
func CodeSizeTable(cfg machine.Config) (*Table, error) {
	t := &Table{
		Title:   "Object code size expansion (" + cfg.Name + "):",
		Columns: []string{"-O, safe", "-g", "-g, checked"},
	}
	if err := prefetch(cfg, slowdownTreatments); err != nil {
		return nil, err
	}
	for _, w := range workloads.All() {
		base, err := Measure(w, Opt, cfg)
		if err != nil {
			return nil, err
		}
		row := Row{Workload: w.Name}
		safe, err := Measure(w, OptSafe, cfg)
		if err != nil {
			return nil, err
		}
		row.Cells = append(row.Cells, Cell{Pct: pct(uint64(safe.Size), uint64(base.Size))})
		if w.DebugUnavailable {
			row.Cells = append(row.Cells, Cell{Unavail: true}, Cell{Unavail: true})
			t.Rows = append(t.Rows, row)
			continue
		}
		dbg, err := Measure(w, Debug, cfg)
		if err != nil {
			return nil, err
		}
		row.Cells = append(row.Cells, Cell{Pct: pct(uint64(dbg.Size), uint64(base.Size))})
		chk, err := Measure(w, DebugChecked, cfg)
		if err != nil {
			return nil, err
		}
		row.Cells = append(row.Cells, Cell{Pct: pct(uint64(chk.Size), uint64(base.Size))})
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// PostprocessorTable reproduces the final table: residual running-time and
// code-size degradation of safe code after the peephole postprocessor,
// relative to the fully optimized normally compiled code.
func PostprocessorTable(cfg machine.Config) (*Table, error) {
	t := &Table{
		Title:   "After the postprocessor (" + cfg.Name + "):",
		Columns: []string{"running time", "code size"},
	}
	if err := prefetch(cfg, func(workloads.Workload) []Treatment {
		return []Treatment{Opt, OptSafePost}
	}); err != nil {
		return nil, err
	}
	for _, w := range workloads.All() {
		base, err := Measure(w, Opt, cfg)
		if err != nil {
			return nil, err
		}
		post, err := Measure(w, OptSafePost, cfg)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, Row{
			Workload: w.Name,
			Cells: []Cell{
				{Pct: pct(post.Cycles, base.Cycles)},
				{Pct: pct(uint64(post.Size), uint64(base.Size))},
			},
		})
	}
	return t, nil
}

// elisionTreatments is the cell set of the elision table: the optimized
// baseline, each classic treatment, and its elided twin.
func elisionTreatments(w workloads.Workload) []Treatment {
	if w.DebugUnavailable {
		return []Treatment{Opt, OptSafe, OptSafeElided}
	}
	return []Treatment{Opt, OptSafe, OptSafeElided, DebugChecked, DebugCheckedElided}
}

// ElisionTable measures the liveness-elision treatment columns against
// their classic twins: slowdowns relative to the unpreprocessed optimized
// build, with and without the Liveness stage's elision. A "<fails>" cell in
// a checked column is gawk's intentional out-of-object arithmetic being
// caught — it must appear in *both* checked columns, since elision only
// drops checks that provably cannot fire.
func ElisionTable(cfg machine.Config) (*Table, error) {
	t := &Table{
		Title:   "Liveness-based elision (" + cfg.Name + "):",
		Columns: []string{"-O, safe", "-O, safe-elided", "-g, checked", "-g, checked-elided"},
	}
	if err := prefetch(cfg, elisionTreatments); err != nil {
		return nil, err
	}
	for _, w := range workloads.All() {
		base, err := Measure(w, Opt, cfg)
		if err != nil {
			return nil, err
		}
		row := Row{Workload: w.Name}
		for _, tr := range []Treatment{OptSafe, OptSafeElided} {
			m, err := Measure(w, tr, cfg)
			if err != nil {
				return nil, err
			}
			row.Cells = append(row.Cells, Cell{Pct: pct(m.Cycles, base.Cycles)})
		}
		if w.DebugUnavailable {
			row.Cells = append(row.Cells, Cell{Unavail: true}, Cell{Unavail: true})
			t.Rows = append(t.Rows, row)
			continue
		}
		for _, tr := range []Treatment{DebugChecked, DebugCheckedElided} {
			m, err := Measure(w, tr, cfg)
			if err != nil {
				return nil, err
			}
			if m.CheckFailed {
				row.Cells = append(row.Cells, Cell{Fails: true})
				continue
			}
			row.Cells = append(row.Cells, Cell{Pct: pct(m.Cycles, base.Cycles)})
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// hazardTreatments is the cell set of the hazard table: the optimized
// baseline, the safe production build, the temporal checker build, and the
// safe build on the concurrent-mutator simulation.
var hazardTreatments = []Treatment{Opt, OptSafe, OptTemporal, OptSafeConcurrent}

// HazardTable measures the temporal/concurrency hazard catalogue
// (internal/workloads.Hazards()) under the extension's treatment columns.
// A "<fails>" cell is the desired outcome: the temporal checker caught the
// workload's seeded use-after-free or double-free as a deterministic
// violation. The remaining cells are slowdowns relative to the optimized
// baseline, as in the paper's tables (the mt4 column's cost includes the
// worker threads the single-thread baseline never runs).
func HazardTable(cfg machine.Config) (*Table, error) {
	t := &Table{
		Title:   "Temporal/concurrent hazard workloads (" + cfg.Name + "):",
		Columns: []string{"-O, safe", "-O, temporal", "-O, safe, mt4", "retained@exit"},
	}
	// One catalogue generation for both passes: workloads.Hazards builds
	// its sources and inputs fresh on every call.
	hs := workloads.Hazards()
	var reqs []CellRequest
	for _, w := range hs {
		for _, tr := range hazardTreatments {
			reqs = append(reqs, CellRequest{Workload: w, Treatment: tr, Machine: cfg})
		}
	}
	if _, err := MeasureAll(reqs); err != nil {
		return nil, err
	}
	for _, w := range hs {
		base, err := Measure(w, Opt, cfg)
		if err != nil {
			return nil, err
		}
		retained, err := MeasureRetained(w)
		if err != nil {
			return nil, err
		}
		row := Row{Workload: w.Name}
		for _, tr := range hazardTreatments[1:] {
			m, err := Measure(w, tr, cfg)
			if err != nil {
				return nil, err
			}
			if m.CheckFailed {
				row.Cells = append(row.Cells, Cell{Fails: true})
				continue
			}
			row.Cells = append(row.Cells, Cell{Pct: pct(m.Cycles, base.Cycles)})
		}
		row.Cells = append(row.Cells, retainedCell(retained))
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}
