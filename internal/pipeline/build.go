package pipeline

import (
	"context"

	"gcsafety/internal/artifact"
	"gcsafety/internal/cc/ast"
	"gcsafety/internal/cc/lexer"
	"gcsafety/internal/cc/parser"
	"gcsafety/internal/codegen"
	"gcsafety/internal/gcsafe"
	"gcsafety/internal/liveness"
	"gcsafety/internal/machine"
	"gcsafety/internal/peephole"
)

// Options configures one walk of the stage graph. Only the stages a
// field feeds see it in their content keys: annotation options stop
// influencing keys at the Annotate stage boundary, the machine's
// code-shaping fields enter at Codegen, so builds differing only in late
// options share every earlier artifact.
type Options struct {
	// Annotate enables the GC-safety preprocessor stage.
	Annotate bool
	// AnnotateOptions configures the stage when enabled.
	AnnotateOptions gcsafe.Options
	// Optimize selects the -O compiler pipeline (-g otherwise).
	Optimize bool
	// Post enables the peephole postprocessor stage.
	Post bool
	// Machine is the target configuration. Only its code-shaping fields
	// (MachineFields) reach the program; its name and costs do not.
	Machine machine.Config
	// DisableReassociation / DisableLoadFolding mirror the codegen
	// ablation switches.
	DisableReassociation bool
	DisableLoadFolding   bool
}

// Result is one build's outputs. Everything in it may be shared with
// other builds through the artifact cache: callers must treat the
// program, the AST and the annotation result as immutable.
type Result struct {
	// Prog is the compiled (and, under Options.Post, postprocessed)
	// program.
	Prog *machine.Program
	// Annotate is the annotator's result (nil when annotation was
	// disabled).
	Annotate *gcsafe.Result
	// Peephole reports what the postprocessor changed (nil when
	// postprocessing was disabled).
	Peephole *peephole.Stats
	// File is the checked — and, when annotation ran, annotated — AST.
	File *ast.File
	// Report describes the walk: per-stage cache hits and durations.
	Report *BuildReport
	// Key is the content key of the build's final stage (Optimize, or
	// Peephole under Options.Post): equal keys mean equal programs.
	Key artifact.Key
}

// annotated is the Annotate stage's artifact: the mutated deep clone of
// the checked AST plus the annotator's diagnostics and rewritten source.
type annotated struct {
	file *ast.File
	res  *gcsafe.Result
}

// postprocessed is the Peephole stage's artifact.
type postprocessed struct {
	prog  *machine.Program
	stats peephole.Stats
}

// stageKey starts the content key of one stage: the stage's own version
// chained onto the upstream artifact's key. Option fingerprints are
// appended by the caller.
func stageKey(s Stage, upstream artifact.Key) *artifact.KeyBuilder {
	return artifact.NewKey("pipeline." + string(s)).Str(Version(s)).Str(string(upstream))
}

// annotateFields folds every annotator option into a key. Elide is folded
// only when set, so the classic (unelided) treatments keep the keys they
// had before the elision axis existed.
func annotateFields(b *artifact.KeyBuilder, o gcsafe.Options) *artifact.KeyBuilder {
	b = b.Int(int64(o.Mode)).
		Bool(o.NoCopySuppression).
		Bool(o.NoIncDecExpansion).
		Bool(o.BaseHeuristic).
		Bool(o.CallSiteOnly).
		Bool(o.StrictCastWarnings).
		Int(int64(o.Style))
	if o.Elide {
		b = b.Bool(true)
	}
	return b
}

// MachineFields folds the code-shaping fields of a machine configuration
// into a key: the register count and the two ISA switches, the only
// fields codegen and the postprocessor read. The name and the cycle costs
// stay out, so machines that differ only in cost model (the two
// SPARCstations) share one program, and so can share its executions.
func MachineFields(b *artifact.KeyBuilder, cfg machine.Config) *artifact.KeyBuilder {
	return b.Int(int64(cfg.NumRegs)).
		Bool(cfg.TwoOperand).
		Bool(cfg.LoadIndexed)
}

// frontEnd runs the treatment-independent prefix of the graph — Lex,
// Parse, Typecheck — and returns the Typecheck artifact and its key.
func (r *Runner) frontEnd(ctx context.Context, name, src string, rep *BuildReport) (*checked, artifact.Key, error) {
	klex := artifact.NewKey("pipeline." + string(StageLex)).Str(Version(StageLex)).Str(src).Sum()
	v, err := r.run(ctx, StageLex, klex, rep, func() (any, int64, error) {
		s := lexer.ScanAll(src)
		return s, int64(len(s.Tokens))*48 + 64, nil
	})
	if err != nil {
		return nil, "", &StageError{Stage: StageLex, Err: err}
	}
	scan := v.(*lexer.Scan)

	kparse := stageKey(StageParse, klex).Str(name).Sum()
	v, err = r.run(ctx, StageParse, kparse, rep, func() (any, int64, error) {
		f, err := parser.ParseTokens(name, src, scan.Replay())
		if err != nil {
			return nil, 0, err
		}
		return f, int64(len(src))*6 + 256, nil
	})
	if err != nil {
		return nil, "", &StageError{Stage: StageParse, Err: err}
	}
	file := v.(*ast.File)

	kcheck := stageKey(StageTypecheck, kparse).Sum()
	v, err = r.run(ctx, StageTypecheck, kcheck, rep, func() (any, int64, error) {
		ck, err := verify(file)
		if err != nil {
			return nil, 0, err
		}
		return ck, 128, nil
	})
	if err != nil {
		return nil, "", &StageError{Stage: StageTypecheck, Err: err}
	}
	return v.(*checked), kcheck, nil
}

// liveness runs the Liveness stage on a checked front end: the elision
// facts the annotator consults under Options.Elide. The analysis only
// reads the shared AST, so no clone is needed; the facts artifact is
// itself immutable and position-keyed, so it applies equally to the
// Annotate stage's deep clone.
func (r *Runner) liveness(ctx context.Context, ck *checked, kcheck artifact.Key, rep *BuildReport) (*liveness.Facts, artifact.Key, error) {
	klive := stageKey(StageLiveness, kcheck).Sum()
	v, err := r.run(ctx, StageLiveness, klive, rep, func() (any, int64, error) {
		facts := liveness.Analyze(ck.file)
		return facts, int64(facts.Units())*96 + 256, nil
	})
	if err != nil {
		return nil, "", &StageError{Stage: StageLiveness, Err: err}
	}
	return v.(*liveness.Facts), klive, nil
}

// annotate runs the Annotate stage on a checked front end. The compute
// deep-clones the shared AST before the annotator mutates it, so the
// Parse/Typecheck artifacts stay pristine for other treatments. Under
// opts.Elide the stage first walks through Liveness, and the annotate key
// chains off the liveness key so the artifact depends on both stage
// versions.
func (r *Runner) annotate(ctx context.Context, ck *checked, kcheck artifact.Key, opts gcsafe.Options, rep *BuildReport) (*annotated, artifact.Key, error) {
	upstream := kcheck
	var facts *liveness.Facts
	if opts.Elide {
		f, klive, err := r.liveness(ctx, ck, kcheck, rep)
		if err != nil {
			return nil, "", err
		}
		facts = f
		upstream = klive
	}
	kann := annotateFields(stageKey(StageAnnotate, upstream), opts).Sum()
	v, err := r.run(ctx, StageAnnotate, kann, rep, func() (any, int64, error) {
		clone := ck.file.Clone()
		res, err := gcsafe.AnnotateWithFacts(clone, opts, facts)
		if err != nil {
			return nil, 0, err
		}
		if opts.Elide {
			r.elision.considered.Add(uint64(res.Considered))
			r.elision.elided.Add(uint64(res.Elided))
			r.elision.elidedLive.Add(uint64(res.ElidedLive))
			r.elision.elidedBounds.Add(uint64(res.ElidedBounds))
		}
		return &annotated{file: clone, res: res}, int64(len(res.Output))*8 + 512, nil
	})
	if err != nil {
		return nil, "", &StageError{Stage: StageAnnotate, Err: err}
	}
	a := v.(*annotated)
	if opts.Elide && rep != nil {
		st := ElisionStat{
			Considered:   uint64(a.res.Considered),
			Elided:       uint64(a.res.Elided),
			ElidedLive:   uint64(a.res.ElidedLive),
			ElidedBounds: uint64(a.res.ElidedBounds),
		}
		st.Kept = st.Considered - st.Elided
		rep.Elision = &st
	}
	return a, kann, nil
}

// Annotate runs the graph up to and including the Annotate stage — the
// C-to-C preprocessor as a cached pipeline.
func (r *Runner) Annotate(ctx context.Context, name, src string, opts gcsafe.Options) (*gcsafe.Result, *BuildReport, error) {
	rep := &BuildReport{}
	ck, kcheck, err := r.frontEnd(ctx, name, src, rep)
	if err != nil {
		return nil, rep, err
	}
	a, _, err := r.annotate(ctx, ck, kcheck, opts, rep)
	if err != nil {
		return nil, rep, err
	}
	return a.res, rep, nil
}

// Build walks the full graph for one translation unit. Errors are
// *StageError values attributing the failure to a stage; they unwrap to
// the parser/annotator/codegen error (or to ctx.Err(), or to an injected
// fault) underneath.
func (r *Runner) Build(ctx context.Context, name, src string, opts Options) (*Result, error) {
	rep := &BuildReport{}
	res := &Result{Report: rep}

	ck, kfront, err := r.frontEnd(ctx, name, src, rep)
	if err != nil {
		return nil, err
	}
	file := ck.file
	if opts.Annotate {
		a, kann, err := r.annotate(ctx, ck, kfront, opts.AnnotateOptions, rep)
		if err != nil {
			return nil, err
		}
		file = a.file
		res.Annotate = a.res
		kfront = kann
	}
	res.File = file

	cgOpts := codegen.Options{
		Optimize:             opts.Optimize,
		Machine:              opts.Machine,
		DisableReassociation: opts.DisableReassociation,
		DisableLoadFolding:   opts.DisableLoadFolding,
	}
	kcg := MachineFields(stageKey(StageCodegen, kfront).
		Bool(opts.Optimize).
		Bool(opts.DisableReassociation).
		Bool(opts.DisableLoadFolding), opts.Machine).Sum()
	v, err := r.run(ctx, StageCodegen, kcg, rep, func() (any, int64, error) {
		ir, err := codegen.Gen(file, cgOpts)
		if err != nil {
			return nil, 0, err
		}
		n := int64(len(ir.Data)) + 256
		for _, fn := range ir.Fns {
			n += int64(len(fn.Code)) * 40
		}
		return ir, n, nil
	})
	if err != nil {
		return nil, &StageError{Stage: StageCodegen, Err: err}
	}
	ir := v.(*codegen.IR)

	kopt := stageKey(StageOptimize, kcg).Sum()
	v, err = r.run(ctx, StageOptimize, kopt, rep, func() (any, int64, error) {
		prog := codegen.Backend(ir)
		return prog, int64(prog.Size())*40 + int64(len(prog.Data)) + 256, nil
	})
	if err != nil {
		return nil, &StageError{Stage: StageOptimize, Err: err}
	}
	res.Prog = v.(*machine.Program)
	res.Key = kopt

	if opts.Post {
		// The machine config feeding the postprocessor is already part of
		// kopt (via the Codegen key), so the chain alone keys this stage.
		kpeep := stageKey(StagePeephole, kopt).Sum()
		prog := res.Prog
		v, err = r.run(ctx, StagePeephole, kpeep, rep, func() (any, int64, error) {
			q := prog.Clone()
			st := peephole.Optimize(q, opts.Machine)
			return &postprocessed{prog: q, stats: st}, int64(q.Size())*40 + int64(len(q.Data)) + 256, nil
		})
		if err != nil {
			return nil, &StageError{Stage: StagePeephole, Err: err}
		}
		p := v.(*postprocessed)
		res.Prog = p.prog
		res.Key = kpeep
		st := p.stats
		res.Peephole = &st
	}
	return res, nil
}
