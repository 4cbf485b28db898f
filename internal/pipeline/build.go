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
	// (register count, TwoOperand, LoadIndexed) reach the program; its
	// name and costs do not.
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
	// Report describes the walk: per-stage cache hits and durations.
	Report *BuildReport
	// Key is the content key of the build's final stage (Optimize, or
	// Peephole under Options.Post): equal keys mean equal programs. It
	// equals Options.Key(name, src).
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

// keys is the chain of stage keys one build walks. Each stage key chains
// on its upstream stage's key, never on an artifact, so the whole chain
// follows from the name, the source and the options before any stage
// runs. A stage the build skips has an empty key.
type keys struct {
	lex, parse, check artifact.Key
	live, annotate    artifact.Key
	codegen, optimize artifact.Key
	peephole          artifact.Key
}

// frontKeys derives the keys of the treatment-independent front end:
// Lex keys on the source, Parse adds the file name (diagnostics and
// positions carry it), Typecheck adds nothing.
func frontKeys(name, src string) keys {
	var k keys
	k.lex = artifact.NewKey("pipeline." + string(StageLex)).Str(Version(StageLex)).Str(src).Sum()
	k.parse = stageKey(StageParse, k.lex).Str(name).Sum()
	k.check = stageKey(StageTypecheck, k.parse).Sum()
	return k
}

// withAnnotate adds the Annotate key, which folds every annotator option.
// Under Elide the stage walks through Liveness first, and its key chains
// off the liveness key so the artifact depends on both stage versions.
func (k keys) withAnnotate(o gcsafe.Options) keys {
	upstream := k.check
	if o.Elide {
		k.live = stageKey(StageLiveness, k.check).Sum()
		upstream = k.live
	}
	k.annotate = stageKey(StageAnnotate, upstream).
		Int(int64(o.Mode)).
		Bool(o.NoCopySuppression).
		Bool(o.NoIncDecExpansion).
		Bool(o.BaseHeuristic).
		Bool(o.CallSiteOnly).
		Bool(o.StrictCastWarnings).
		Int(int64(o.Style)).
		Bool(o.Elide).
		Sum()
	return k
}

// keys derives the whole chain of one build. Codegen folds the machine's
// code-shaping fields — the register count and the two ISA switches, the
// only fields codegen and the postprocessor read. The name and the cycle
// costs stay out, so machines that differ only in cost model (the two
// SPARCstations) share one program, and so can share its executions.
func (o Options) keys(name, src string) keys {
	k := frontKeys(name, src)
	front := k.check
	if o.Annotate {
		k = k.withAnnotate(o.AnnotateOptions)
		front = k.annotate
	}
	k.codegen = stageKey(StageCodegen, front).
		Bool(o.Optimize).
		Bool(o.DisableReassociation).
		Bool(o.DisableLoadFolding).
		Int(int64(o.Machine.NumRegs)).
		Bool(o.Machine.TwoOperand).
		Bool(o.Machine.LoadIndexed).
		Sum()
	k.optimize = stageKey(StageOptimize, k.codegen).Sum()
	if o.Post {
		// The machine config feeding the postprocessor is already part of
		// the Optimize key (via the Codegen key), so the chain alone keys
		// this stage.
		k.peephole = stageKey(StagePeephole, k.optimize).Sum()
	}
	return k
}

// Key returns the content key of the final stage (Optimize, or Peephole
// under Post) of building one translation unit, without running any
// stage. Build derives its stage keys through the same code, so a
// Result's Key always equals it: equal keys mean equal programs.
func (o Options) Key(name, src string) artifact.Key {
	return o.keys(name, src).final()
}

// final is the key of the last stage the build walks.
func (k keys) final() artifact.Key {
	if k.peephole != "" {
		return k.peephole
	}
	return k.optimize
}

// AnnotateKey returns the Annotate stage's key for one translation unit
// without running any stage: the identity of what Runner.Annotate
// returns for the same arguments.
func AnnotateKey(name, src string, opts gcsafe.Options) artifact.Key {
	return frontKeys(name, src).withAnnotate(opts).annotate
}

// frontEnd runs the treatment-independent prefix of the graph — Lex,
// Parse, Typecheck — and returns the Typecheck artifact.
func (r *Runner) frontEnd(ctx context.Context, name, src string, k keys, rep *BuildReport) (*checked, error) {
	v, _, err := r.run(ctx, StageLex, k.lex, rep, func() (any, int64, error) {
		s := lexer.ScanAll(src)
		return s, int64(len(s.Tokens))*48 + 64, nil
	})
	if err != nil {
		return nil, &StageError{Stage: StageLex, Err: err}
	}
	scan := v.(*lexer.Scan)

	v, _, err = r.run(ctx, StageParse, k.parse, rep, func() (any, int64, error) {
		f, err := parser.ParseTokens(name, src, scan.Replay())
		if err != nil {
			return nil, 0, err
		}
		return f, int64(len(src))*6 + 256, nil
	})
	if err != nil {
		return nil, &StageError{Stage: StageParse, Err: err}
	}
	file := v.(*ast.File)

	v, _, err = r.run(ctx, StageTypecheck, k.check, rep, func() (any, int64, error) {
		ck, err := verify(file)
		if err != nil {
			return nil, 0, err
		}
		return ck, 128, nil
	})
	if err != nil {
		return nil, &StageError{Stage: StageTypecheck, Err: err}
	}
	return v.(*checked), nil
}

// annotate runs the Annotate stage on a checked front end. The compute
// deep-clones the shared AST before the annotator mutates it, so the
// Parse/Typecheck artifacts stay pristine for other treatments. Under
// opts.Elide the stage first walks through Liveness: the elision facts
// the annotator consults. The analysis only reads the shared AST, so no
// clone is needed; the facts artifact is itself immutable and
// position-keyed, so it applies equally to the Annotate stage's clone.
func (r *Runner) annotate(ctx context.Context, ck *checked, k keys, opts gcsafe.Options, rep *BuildReport) (*annotated, error) {
	var facts *liveness.Facts
	if opts.Elide {
		v, _, err := r.run(ctx, StageLiveness, k.live, rep, func() (any, int64, error) {
			facts := liveness.Analyze(ck.file)
			return facts, int64(facts.Units())*96 + 256, nil
		})
		if err != nil {
			return nil, &StageError{Stage: StageLiveness, Err: err}
		}
		facts = v.(*liveness.Facts)
	}
	v, _, err := r.run(ctx, StageAnnotate, k.annotate, rep, func() (any, int64, error) {
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
		return nil, &StageError{Stage: StageAnnotate, Err: err}
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
	return a, nil
}

// Annotate runs the graph up to and including the Annotate stage — the
// C-to-C preprocessor as a cached pipeline.
func (r *Runner) Annotate(ctx context.Context, name, src string, opts gcsafe.Options) (*gcsafe.Result, *BuildReport, error) {
	rep := &BuildReport{}
	k := frontKeys(name, src).withAnnotate(opts)
	ck, err := r.frontEnd(ctx, name, src, k, rep)
	if err != nil {
		return nil, rep, err
	}
	a, err := r.annotate(ctx, ck, k, opts, rep)
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
	k := opts.keys(name, src)

	ck, err := r.frontEnd(ctx, name, src, k, rep)
	if err != nil {
		return nil, err
	}
	file := ck.file
	if opts.Annotate {
		a, err := r.annotate(ctx, ck, k, opts.AnnotateOptions, rep)
		if err != nil {
			return nil, err
		}
		file = a.file
		res.Annotate = a.res
	}

	cgOpts := codegen.Options{
		Optimize:             opts.Optimize,
		Machine:              opts.Machine,
		DisableReassociation: opts.DisableReassociation,
		DisableLoadFolding:   opts.DisableLoadFolding,
	}
	v, _, err := r.run(ctx, StageCodegen, k.codegen, rep, func() (any, int64, error) {
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

	v, _, err = r.run(ctx, StageOptimize, k.optimize, rep, func() (any, int64, error) {
		prog := codegen.Backend(ir)
		return prog, int64(prog.Size())*40 + int64(len(prog.Data)) + 256, nil
	})
	if err != nil {
		return nil, &StageError{Stage: StageOptimize, Err: err}
	}
	res.Prog = v.(*machine.Program)
	res.Key = k.final()

	if opts.Post {
		prog := res.Prog
		v, _, err = r.run(ctx, StagePeephole, k.peephole, rep, func() (any, int64, error) {
			q := prog.Clone()
			st := peephole.Optimize(q, opts.Machine)
			return &postprocessed{prog: q, stats: st}, int64(q.Size())*40 + int64(len(q.Data)) + 256, nil
		})
		if err != nil {
			return nil, &StageError{Stage: StagePeephole, Err: err}
		}
		p := v.(*postprocessed)
		res.Prog = p.prog
		st := p.stats
		res.Peephole = &st
	}
	return res, nil
}
