// Package gcsafety is a from-scratch reproduction of "Simple
// Garbage-Collector-Safety" (Hans-J. Boehm, PLDI 1996): a C front end, the
// KEEP_LIVE GC-safety/pointer-checking annotator that is the paper's
// central contribution, a conservative collector, an optimizing compiler
// for a simulated RISC machine that exhibits the paper's pointer-disguising
// hazard, a peephole postprocessor, and the measurement harness that
// regenerates the paper's tables.
//
// The root package offers the whole pipeline behind a small API:
//
//	out, _ := gcsafety.Annotate("x.c", src, gcsafety.Safe())   // C-to-C preprocessor
//	res, _ := gcsafety.Run("x.c", src, gcsafety.Pipeline{...}) // compile + execute
//
// The layers are available individually under internal/ for the examples,
// benchmarks and tests; see DESIGN.md for the package inventory.
package gcsafety

import (
	"context"
	"errors"
	"fmt"

	"gcsafety/internal/artifact"
	"gcsafety/internal/cc/ast"
	"gcsafety/internal/cc/parser"
	"gcsafety/internal/fuzz"
	"gcsafety/internal/gcsafe"
	"gcsafety/internal/interp"
	"gcsafety/internal/machine"
	"gcsafety/internal/pipeline"
)

// Mode selects the annotation mode of the preprocessor.
type Mode = gcsafe.Mode

// Annotation modes.
const (
	ModeSafe     = gcsafe.ModeSafe
	ModeChecked  = gcsafe.ModeChecked
	ModeTemporal = gcsafe.ModeTemporal
)

// AnnotateOptions re-exports the annotator configuration.
type AnnotateOptions = gcsafe.Options

// Safe returns the default production GC-safety options (the paper's
// optimizations (1) and (2) enabled).
func Safe() AnnotateOptions { return AnnotateOptions{Mode: ModeSafe} }

// Checked returns the debugging-mode options: every pointer-arithmetic
// result is validated at run time through GC_same_obj.
func Checked() AnnotateOptions { return AnnotateOptions{Mode: ModeChecked} }

// Temporal returns the temporal-checking options: checked-mode pointer
// validation plus free→GC_free rewriting, so that (with the interpreter's
// Temporal option on) use-after-free and double-free become deterministic
// checker violations instead of silent corruption.
func Temporal() AnnotateOptions { return AnnotateOptions{Mode: ModeTemporal} }

// SafeElided returns Safe() with the liveness-based elision analysis on:
// KEEP_LIVE annotations whose base variable is provably live across the
// expression are dropped (see internal/liveness).
func SafeElided() AnnotateOptions { return AnnotateOptions{Mode: ModeSafe, Elide: true} }

// CheckedElided returns Checked() with elision on: GC_same_obj checks that
// provably cannot fire — constant-offset accesses within allocations of
// statically known size, with the base variable live — are dropped. Every
// check that can fire is kept, so detection power is unchanged.
func CheckedElided() AnnotateOptions { return AnnotateOptions{Mode: ModeChecked, Elide: true} }

// defaultRunner executes every package-level Annotate/Build/Run call on
// the stage-graph pipeline (internal/pipeline) over a shared bounded
// artifact cache, so repeated builds of the same source — or of
// treatments sharing a front end — reuse per-stage artifacts. Results
// may therefore be shared between calls: treat returned programs, ASTs
// and annotation results as immutable.
var defaultRunner = pipeline.NewRunner(artifact.New(64 << 20))

// Annotate runs the C-to-C preprocessor and returns the rewritten source
// plus diagnostics.
func Annotate(name, src string, opts AnnotateOptions) (*gcsafe.Result, error) {
	return AnnotateContext(context.Background(), name, src, opts)
}

// AnnotateContext is Annotate under a context: a canceled or expired ctx
// aborts before the (CPU-bound, but brief) annotation pass starts.
func AnnotateContext(ctx context.Context, name, src string, opts AnnotateOptions) (*gcsafe.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("annotate: %w", err)
	}
	res, _, err := defaultRunner.Annotate(ctx, name, src, opts)
	if err != nil {
		// Surface the parser's or annotator's own error, exactly as the
		// pre-pipeline path did.
		var se *pipeline.StageError
		if errors.As(err, &se) {
			return nil, se.Err
		}
		return nil, err
	}
	return res, nil
}

// Pipeline configures a full compile-and-execute run.
type Pipeline struct {
	// Annotate enables the GC-safety preprocessor pass.
	Annotate bool
	// AnnotateOptions configures the pass when enabled.
	AnnotateOptions AnnotateOptions
	// Optimize selects the -O compiler pipeline ( -g otherwise).
	Optimize bool
	// Postprocess runs the paper's peephole postprocessor over the
	// compiled code.
	Postprocess bool
	// Machine is the target configuration (default SPARCstation 10).
	Machine *machine.Config
	// Exec configures execution (entry point, GC policy, input...).
	Exec interp.Options
}

// BuildReport re-exports the pipeline's per-build stage report: which
// stages ran, which were served from the artifact cache, and how long
// each took.
type BuildReport = pipeline.BuildReport

// StageReport is one stage execution within a BuildReport.
type StageReport = pipeline.StageReport

// Result of a full pipeline run.
type Result struct {
	Exec     *interp.Result
	Program  *machine.Program
	Annotate *gcsafe.Result // nil when annotation was disabled
	Report   *BuildReport   // the build's stage-graph walk
}

// Build parses, optionally annotates, compiles and optionally postprocesses
// a translation unit.
func Build(name, src string, p Pipeline) (*machine.Program, *gcsafe.Result, error) {
	return BuildContext(context.Background(), name, src, p)
}

// BuildContext is Build under a context, checked between pipeline stages:
// a canceled or expired ctx aborts before the next stage begins.
func BuildContext(ctx context.Context, name, src string, p Pipeline) (*machine.Program, *gcsafe.Result, error) {
	prog, ares, _, err := BuildWithReportContext(ctx, name, src, p)
	return prog, ares, err
}

// BuildWithReport is Build plus the stage report of the walk that
// produced the program.
func BuildWithReport(name, src string, p Pipeline) (*machine.Program, *gcsafe.Result, *BuildReport, error) {
	return BuildWithReportContext(context.Background(), name, src, p)
}

// BuildWithReportContext runs the staged build. The returned program and
// annotation result may be shared with other builds via the artifact
// cache and must not be mutated.
func BuildWithReportContext(ctx context.Context, name, src string, p Pipeline) (*machine.Program, *gcsafe.Result, *BuildReport, error) {
	res, _, err := p.build(ctx, name, src)
	if err != nil {
		return nil, nil, nil, err
	}
	return res.Prog, res.Annotate, res.Report, nil
}

// build is the shared staged-build core: it builds p on the SPARCstation
// 10 unless p names a machine, normalizes stage errors, and returns the
// build with p's run options on the same machine.
func (p Pipeline) build(ctx context.Context, name, src string) (*pipeline.Result, interp.Options, error) {
	cfg := machine.SPARCstation10()
	if p.Machine != nil {
		cfg = *p.Machine
	}
	run := p.Exec
	run.Config = cfg
	if err := ctx.Err(); err != nil {
		return nil, run, fmt.Errorf("build: %w", err)
	}
	res, err := defaultRunner.Build(ctx, name, src, pipeline.Options{
		Annotate:        p.Annotate,
		AnnotateOptions: p.AnnotateOptions,
		Optimize:        p.Optimize,
		Post:            p.Postprocess,
		Machine:         cfg,
	})
	if err != nil {
		return nil, run, wrapBuildError(err)
	}
	return res, run, nil
}

// wrapBuildError converts a pipeline StageError into the phase-prefixed
// errors this API has always returned: "parse:", "annotate:", "compile:"
// for stage failures, "build:" for context expiry between stages.
func wrapBuildError(err error) error {
	var se *pipeline.StageError
	if !errors.As(err, &se) {
		return err
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return fmt.Errorf("build: %w", se.Err)
	}
	return fmt.Errorf("%s: %w", se.Phase(), se.Err)
}

// Run executes the full pipeline on one C translation unit.
func Run(name, src string, p Pipeline) (*Result, error) {
	return RunContext(context.Background(), name, src, p)
}

// RunContext is Run under a context: the build stages observe ctx at their
// boundaries and the interpreter polls it between instructions, so a
// deadline or cancellation bounds the whole pipeline — the robustness
// contract the gcsafed daemon depends on to survive adversarial inputs.
// The run is the pipeline's Execute stage: an identical run without
// faults shares a cached outcome, and Exec is nil when ctx ended the run.
func RunContext(ctx context.Context, name, src string, p Pipeline) (*Result, error) {
	bres, run, err := p.build(ctx, name, src)
	if err != nil {
		return nil, err
	}
	res, _, err := defaultRunner.Execute(ctx, bres.Prog, bres.Key, run)
	return &Result{Exec: res, Program: bres.Prog, Annotate: bres.Annotate, Report: bres.Report}, err
}

// PipelineStats snapshots the default build pipeline's per-stage
// counters: calls, cache hits/misses, errors, cumulative duration.
func PipelineStats() []pipeline.StageStat {
	return defaultRunner.Stats()
}

// Parse exposes the front end for tools that want the AST.
func Parse(name, src string) (*ast.File, error) { return parser.Parse(name, src) }

// GeneratedProgram is a random C program paired with the output its
// reference model predicts (see internal/fuzz).
type GeneratedProgram = fuzz.Program

// MatrixOptions configures a differential treatment-matrix run.
type MatrixOptions = fuzz.MatrixOptions

// MatrixResult reports one program's runs across the treatment matrix.
type MatrixResult = fuzz.MatrixResult

// GenerateProgram builds one random well-defined C program from a
// deterministic seed, together with the model of its output. steps is the
// number of operations in the program body.
func GenerateProgram(seed int64, steps int) *GeneratedProgram {
	return fuzz.Generate(seed, steps)
}

// RunMatrix compiles and executes a generated program under the full
// differential treatment matrix — {unannotated, safe, checked} x {-g, -O} x
// {peephole on/off} per machine, plus adversarial-collection runs — and
// classifies every disagreement with the model. Only the unannotated
// optimized build (the configuration the paper shows is not GC-safe) may
// fail; all other treatments appear in MatrixResult.Violations if they do.
func RunMatrix(p *GeneratedProgram, opt MatrixOptions) (*MatrixResult, error) {
	return fuzz.RunMatrix(p, opt)
}
