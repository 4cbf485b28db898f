// Package gcsafe implements the paper's central contribution: the algorithm
// that annotates C source (or its AST) with KEEP_LIVE expressions so that
// conventionally compiled code is safe in the presence of a conservative
// garbage collector, and — by swapping the KEEP_LIVE implementation for a
// call to GC_same_obj — a run-time pointer-arithmetic checker in the style
// of Purify.
//
// The annotation rule (paper, "An Algorithm"): replace every pointer-valued
// expression e that occurs as the right side of an assignment, as the
// argument of a dereferencing operation, or as a function argument or
// result, by KEEP_LIVE(e, BASE(e)), where BASE is the inductive base-pointer
// computation reproduced in base.go. C increment and decrement operators
// are treated as assignments; subscript and member-access address
// computations are treated as pointer arithmetic ("we essentially treat
// pointer offset calculations as pointer arithmetic. This appears to result
// in better checking of structure accesses").
//
// The package produces two coupled artifacts from one traversal:
//
//   - the transformed AST, consumed by internal/codegen, in which KeepLive
//     nodes carry the liveness/opaqueness constraints into the optimizer;
//   - a rewritten copy of the original source text, produced the way the
//     paper's preprocessor works: a list of insertions and deletions sorted
//     by character position, applied to the untouched input.
package gcsafe

import (
	"fmt"

	"gcsafety/internal/cc/ast"
	"gcsafety/internal/cc/parser"
	"gcsafety/internal/cc/token"
	"gcsafety/internal/cc/types"
	"gcsafety/internal/liveness"
	"gcsafety/internal/rewrite"
)

// Mode selects what the inserted annotations mean.
type Mode int

const (
	// ModeSafe inserts KEEP_LIVE annotations compiled to the empty-asm
	// pseudo-instruction: production GC-safety.
	ModeSafe Mode = iota
	// ModeChecked inserts GC_same_obj calls: the debugging configuration
	// that validates every pointer-arithmetic result at run time (and, as a
	// side effect, is also GC-safe, "though not in a performance-optimal
	// fashion").
	ModeChecked
	// ModeTemporal inserts the same GC_same_obj checks as ModeChecked and
	// additionally rewrites free(p) calls to the runtime's GC_free: freed
	// storage is really retired and recycled, so — together with the
	// interpreter's allocation-epoch tags — use-after-free and double-free
	// become deterministic check failures instead of silent reads of
	// recycled memory.
	ModeTemporal
)

// modeNames is the one table of annotation-mode names: every wire field
// and command-line flag that names a mode reads it through ParseMode.
var modeNames = [...]string{ModeSafe: "safe", ModeChecked: "checked", ModeTemporal: "temporal"}

func (m Mode) String() string {
	if m >= 0 && int(m) < len(modeNames) {
		return modeNames[m]
	}
	return "safe"
}

// ParseMode returns the mode called name ("safe", "checked" or
// "temporal").
func ParseMode(name string) (Mode, bool) {
	for m, n := range modeNames {
		if n == name {
			return Mode(m), true
		}
	}
	return ModeSafe, false
}

// Checked reports whether the mode emits run-time GC_same_obj checks
// (both ModeChecked and ModeTemporal do; ModeTemporal adds free rewriting).
func (m Mode) Checked() bool { return m == ModeChecked || m == ModeTemporal }

// EmitStyle selects the textual expansion of KEEP_LIVE in the rewritten
// source.
type EmitStyle int

const (
	// EmitMacro prints KEEP_LIVE(e, base) calls; the output re-parses with
	// this front end (KEEP_LIVE is declared as an opaque external function,
	// the paper's portable fallback implementation).
	EmitMacro EmitStyle = iota
	// EmitAsm prints the gcc statement-expression expansion with an empty
	// __asm__ whose constraints pin the value, as in the paper's "An
	// Implementation" section. gcc-specific; for display and diffing.
	EmitAsm
)

// Options configures the annotator. The zero value enables the paper's
// implemented optimizations (1) and (2) in safe mode.
type Options struct {
	Mode Mode
	// NoCopySuppression disables the paper's optimization (1): when set,
	// even plain copies like `p = q` are wrapped in KEEP_LIVE.
	NoCopySuppression bool
	// NoIncDecExpansion disables the paper's optimization (2): when set,
	// pointer ++/-- always uses the fully general
	// (tmp1 = &(e), tmp2 = *tmp1, *tmp1 = tmp2 + 1, tmp2) expansion even
	// for simple register-allocatable variables.
	NoIncDecExpansion bool
	// BaseHeuristic enables the paper's optimization (3): replace base
	// pointers in KEEP_LIVE expressions by equivalent but less rapidly
	// varying base pointers when the function's assignment structure proves
	// the equivalence.
	BaseHeuristic bool
	// CallSiteOnly enables the paper's optimization (4): "If we know that
	// garbage collections can be triggered only at procedure calls, the
	// number of KEEP_LIVE invocations could often be reduced dramatically."
	// Statements containing no function call cannot be interrupted by a
	// collection in that regime, so their annotations are dropped. The
	// resulting program is safe ONLY under a call-site-triggered collector
	// (the interpreter's allocation-trigger regime), not under the
	// asynchronous one.
	CallSiteOnly bool
	// StrictCastWarnings additionally warns when a cast between different
	// structure pointer types changes where pointers live in the pointee —
	// the check the paper says its preprocessor "could and should also
	// issue warnings" for.
	StrictCastWarnings bool
	// Elide consults the internal/liveness analysis to drop provably
	// redundant annotations: in safe mode, KEEP_LIVE whose base variable
	// is strongly live across the expression anyway; in checked mode,
	// GC_same_obj whose pointer arithmetic is provably in-bounds of a
	// known allocation (and whose base is live, since the call doubles as
	// the rooting point). ModeTemporal ignores Elide: an in-bounds access
	// through a stale pointer is exactly what the epoch check must catch.
	Elide bool
	Style EmitStyle
}

// Warning is a source-checking diagnostic (the paper's "our preprocessor
// issues warnings when nonpointer values are directly converted to
// pointers", plus the memcpy-shape check it recommends).
type Warning struct {
	File string
	Line int
	Col  int
	Msg  string
}

func (w Warning) String() string {
	return fmt.Sprintf("%s:%d:%d: warning: %s", w.File, w.Line, w.Col, w.Msg)
}

// Result is the outcome of annotating one translation unit.
type Result struct {
	// File is the transformed AST (the same *ast.File, mutated in place).
	File *ast.File
	// Output is the rewritten source text.
	Output string
	// Warnings are the source-checking diagnostics.
	Warnings []Warning
	// Inserted counts KEEP_LIVE/GC_same_obj annotations inserted.
	Inserted int
	// Suppressed counts annotations omitted thanks to optimization (1).
	Suppressed int
	// Temps counts compiler-introduced temporaries.
	Temps int
	// Considered counts sites where Options.Elide evaluated the liveness
	// facts (a named base existed and the mode permits elision).
	Considered int
	// Elided counts annotations dropped by the elision analysis; it is
	// split by reason into ElidedLive (safe mode: base strongly live) and
	// ElidedBounds (checked mode: provably in-bounds and base live).
	Elided       int
	ElidedLive   int
	ElidedBounds int
}

// Annotate applies the GC-safety (or checking) transformation to file,
// mutating its AST and producing rewritten source text. Under
// Options.Elide the liveness facts are computed on the spot; the pipeline
// instead passes its cached StageLiveness artifact through
// AnnotateWithFacts (the analysis is deterministic, so both paths produce
// identical results).
func Annotate(file *ast.File, opts Options) (*Result, error) {
	var facts *liveness.Facts
	if opts.Elide {
		facts = liveness.Analyze(file)
	}
	return AnnotateWithFacts(file, opts, facts)
}

// AnnotateWithFacts is Annotate with a precomputed liveness artifact. The
// facts must describe this file (positions and object Name/Seq pairs are
// how they are consulted, so a deep clone of the analyzed tree is fine).
// A nil facts value disables elision regardless of Options.Elide.
func AnnotateWithFacts(file *ast.File, opts Options, facts *liveness.Facts) (*Result, error) {
	an := &annotator{
		file:  file,
		opts:  opts,
		facts: facts,
		res:   &Result{File: file},
	}
	for _, d := range file.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Body != nil {
				an.annotateFunc(d)
			}
		case *ast.VarDecl:
			an.globalDecl(d)
		}
	}
	out, err := an.edits.Apply(file.Source)
	if err != nil {
		return nil, fmt.Errorf("gcsafe: %w", err)
	}
	an.res.Output = out
	return an.res, nil
}

// AnnotateSource parses, annotates and returns the rewritten text of a C
// translation unit — the preprocessor pipeline as a single call.
func AnnotateSource(name, src string, opts Options) (*Result, error) {
	f, err := parser.Parse(name, src)
	if err != nil {
		return nil, err
	}
	return Annotate(f, opts)
}

// annotator carries traversal state.
type annotator struct {
	file  *ast.File
	opts  Options
	res   *Result
	edits rewrite.List
	fn    *ast.FuncDecl
	// silent suppresses text-edit emission inside structural rewrites whose
	// whole span is replaced by printed text.
	silent int
	// heuristicBase maps a pointer variable to the "less rapidly varying"
	// equivalent base chosen by optimization (3) for the current function.
	heuristicBase map[*ast.Object]*ast.Object
	// runtimeFns caches synthesized extern objects for runtime helpers
	// (GC_pre_incr and friends).
	runtimeFns map[string]*ast.Object
	// stmtHasCall is true while annotating a statement that contains a
	// function call (the only collection points under CallSiteOnly).
	stmtHasCall bool
	// forcedSpan overrides the source span of the next structural
	// replacement (set when a postfix increment is canonicalized to prefix
	// at statement level, which loses the node's ability to describe its
	// own byte range).
	forcedSpan *[2]int
	// facts is the liveness/extent analysis consulted under Options.Elide
	// (nil disables elision).
	facts *liveness.Facts
}

// elide reports whether the annotation about to be inserted for the
// expression spanning [pos, end) with base b is provably redundant.
// Elision applies only to named bases (a generating base needs its
// temporary regardless) and never inside structural rewrites or under
// ModeTemporal.
func (an *annotator) elide(b baseInfo, pos, end int) bool {
	if an.facts == nil || !an.opts.Elide || an.silent > 0 || b.obj == nil ||
		an.opts.Mode == ModeTemporal || an.fn == nil {
		return false
	}
	an.res.Considered++
	fn := an.fn.Obj.Name
	if !an.facts.BaseLive(fn, pos, liveness.ObjID(b.obj)) {
		return false
	}
	if an.opts.Mode == ModeChecked {
		if !an.facts.InBounds(fn, pos, end) {
			return false
		}
		an.res.Elided++
		an.res.ElidedBounds++
		return true
	}
	an.res.Elided++
	an.res.ElidedLive++
	return true
}

func (an *annotator) warnf(pos token.Pos, format string, args ...any) {
	an.res.Warnings = append(an.res.Warnings, Warning{
		File: an.file.Name,
		Line: pos.Line,
		Col:  pos.Col,
		Msg:  fmt.Sprintf(format, args...),
	})
}

// isPtr reports whether the expression's value type is a pointer.
func isPtr(e ast.Expr) bool {
	t := e.Type()
	if t == nil {
		return false
	}
	return types.IsPointer(types.Decay(t))
}
