package pipeline

import (
	"fmt"

	"gcsafety/internal/gcsafe"
	"gcsafety/internal/interp"
	"gcsafety/internal/machine"
)

// Spec is one treatment of the paper's evaluation grid, in the form
// gcsafed's /v1/compile and /v1/run requests carry on the wire: how to
// build a translation unit and how to run the program. Its names are the
// wire's, and Options is the one conversion from those names to the
// options every cache key derives from. AnnotateSpec does the same for
// /v1/annotate's switches.
type Spec struct {
	BuildSpec
	RunSpec
}

// BuildSpec is the build half of a Spec.
type BuildSpec struct {
	Machine  string `json:"machine"`  // ss2, ss10 (the default) or p90
	Annotate string `json:"annotate"` // none (the default), safe, checked or temporal
	Optimize bool   `json:"optimize"` // -O (-g otherwise)
	Post     bool   `json:"post"`     // the peephole postprocessor
	Elide    bool   `json:"elide"`    // liveness-based elision of annotations
}

// RunSpec is the run half of a Spec.
type RunSpec struct {
	Input               string `json:"input"`                  // the bytes getchar() reads
	GCEvery             uint64 `json:"gc_every"`               // a collection every n instructions
	CollectAtEveryAlloc bool   `json:"collect_at_every_alloc"` // a collection at every allocation
	Validate            bool   `json:"validate"`               // the premature-reclamation detector
	Temporal            bool   `json:"temporal"`               // the allocation-epoch checker
	Threads             int    `json:"threads"`                // > 1: concurrent mutator threads
	SchedSeed           uint64 `json:"sched_seed"`             // the interleaving (0 = default)
	CollectAtSwitch     bool   `json:"collect_at_switch"`      // a collection at every context switch
	BaseOnly            bool   `json:"base_only"`              // the collector's base-pointer-only heap
}

// Options converts the spec into the build options and the run options
// of one treatment. The error names an unknown machine or annotation.
func (s Spec) Options() (Options, interp.Options, error) {
	build, err := s.BuildOptions()
	if err != nil {
		return build, interp.Options{}, err
	}
	return build, s.RunOptions(build.Machine), nil
}

// BuildOptions converts the build half into pipeline options.
func (b BuildSpec) BuildOptions() (Options, error) {
	opts := Options{Annotate: b.Annotated(), Optimize: b.Optimize, Post: b.Post}
	opts.AnnotateOptions.Elide = b.Elide
	if b.Machine == "" {
		b.Machine = "ss10"
	}
	var ok bool
	if opts.Machine, ok = machine.ByName(b.Machine); !ok {
		return opts, fmt.Errorf("unknown machine %q (want ss2, ss10 or p90)", b.Machine)
	}
	if opts.Annotate {
		if opts.AnnotateOptions.Mode, ok = gcsafe.ParseMode(b.Annotate); !ok {
			return opts, fmt.Errorf("unknown annotate %q (want none, safe, checked or temporal)", b.Annotate)
		}
	}
	return opts, nil
}

// Annotated reports whether Annotate names a mode, not "" or "none".
func (b BuildSpec) Annotated() bool { return b.Annotate != "" && b.Annotate != "none" }

// LastStage is the stage whose artifact is the built program: Peephole
// under Post, else Optimize.
func (b BuildSpec) LastStage() Stage {
	if b.Post {
		return StagePeephole
	}
	return StageOptimize
}

// RunOptions converts the run half into executor options on cfg. The
// step budget, faults and profiling are the caller's policy, not the
// treatment's, and stay zero.
func (r RunSpec) RunOptions(cfg machine.Config) interp.Options {
	return interp.Options{
		Config:              cfg,
		Input:               r.Input,
		GCEveryInstrs:       r.GCEvery,
		CollectAtEveryAlloc: r.CollectAtEveryAlloc,
		Validate:            r.Validate,
		Temporal:            r.Temporal,
		Threads:             r.Threads,
		SchedSeed:           r.SchedSeed,
		CollectAtSwitch:     r.CollectAtSwitch,
		BaseOnlyHeap:        r.BaseOnly,
	}
}

// AnnotateSpec is the C-to-C preprocessor's switches in the wire's names:
// what /v1/annotate asks of the annotator beyond the translation unit.
type AnnotateSpec struct {
	Mode              string `json:"mode"`  // safe (the default), checked or temporal
	Style             string `json:"style"` // macro (the default) or asm
	NoCopySuppression bool   `json:"no_copy_suppression"`
	NoIncDecExpansion bool   `json:"no_incdec_expansion"`
	BaseHeuristic     bool   `json:"base_heuristic"`
	CallSiteOnly      bool   `json:"call_site_only"`
	StrictCasts       bool   `json:"strict_casts"`
	Elide             bool   `json:"elide"` // liveness-based elision of annotations
}

// AnnotateOptions converts the switches into annotator options. The
// error names an unknown mode or style.
func (a AnnotateSpec) AnnotateOptions() (gcsafe.Options, error) {
	opts := gcsafe.Options{
		NoCopySuppression:  a.NoCopySuppression,
		NoIncDecExpansion:  a.NoIncDecExpansion,
		BaseHeuristic:      a.BaseHeuristic,
		CallSiteOnly:       a.CallSiteOnly,
		StrictCastWarnings: a.StrictCasts,
		Elide:              a.Elide,
	}
	var ok bool
	if opts.Mode, ok = gcsafe.ParseMode(a.Mode); !ok && a.Mode != "" {
		return opts, fmt.Errorf("unknown mode %q (want safe, checked or temporal)", a.Mode)
	}
	switch a.Style {
	case "", "macro":
	case "asm":
		opts.Style = gcsafe.EmitAsm
	default:
		return opts, fmt.Errorf("unknown style %q (want macro or asm)", a.Style)
	}
	return opts, nil
}
