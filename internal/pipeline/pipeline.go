// Package pipeline is the stage-graph compilation pipeline: the monolithic
// parse → annotate → compile → postprocess build path, split into an
// explicit DAG of stages
//
//	Lex → Parse → Typecheck → Liveness → Annotate(mode) → Codegen(machine) → Optimize → Peephole → Execute
//
// each of which declares typed input/output artifacts and a content key
// derived from its input keys, its own version string, and a fingerprint
// of the options it consumes. Stages run through a Runner on top of the
// content-addressed artifact cache (internal/artifact), so builds that
// differ only downstream — two treatments of one workload, or one
// treatment on three machines — share every upstream artifact: the
// measurement harness's 3 tables × 4 treatments × 3 machines execute one
// Lex/Parse/Typecheck per workload.
//
// Cached artifacts are shared between callers and therefore immutable by
// contract. The two mutating passes in the codebase are fenced off by
// copies: the Annotate stage deep-clones the checked AST (ast.File.Clone)
// before gcsafe.Annotate mutates it, and the Peephole stage clones the
// compiled program (machine.Program.Clone) before the in-place rewrite.
//
// Every stage is instrumented (per-stage duration and hit/miss/error
// counters, surfaced in gcsafed's /metrics and in the BuildReport),
// honors context cancellation at its boundary, and carries a fault
// injection point named "pipeline.<stage>" (internal/faultinject).
package pipeline

import (
	"fmt"
	"sync"
)

// Stage identifies one node of the compilation DAG.
type Stage string

// The stages, in dependency order. Liveness runs only for elided
// treatments, Annotate is skipped when annotation is disabled, and
// Peephole when postprocessing is disabled; the other five run on every
// build. Runner.Execute runs Execute on a built program.
const (
	StageLex       Stage = "lex"
	StageParse     Stage = "parse"
	StageTypecheck Stage = "typecheck"
	StageLiveness  Stage = "liveness"
	StageAnnotate  Stage = "annotate"
	StageCodegen   Stage = "codegen"
	StageOptimize  Stage = "optimize"
	StagePeephole  Stage = "peephole"
	StageExecute   Stage = "execute"
)

// Stages returns every stage in dependency order.
func Stages() []Stage {
	return []Stage{
		StageLex, StageParse, StageTypecheck, StageLiveness, StageAnnotate,
		StageCodegen, StageOptimize, StagePeephole, StageExecute,
	}
}

// FaultPoint is the stage's fault injection point name
// (see internal/faultinject).
func (s Stage) FaultPoint() string { return "pipeline." + string(s) }

// index returns the stage's position in Stages(), for counter arrays.
func (s Stage) index() int {
	for i, st := range Stages() {
		if st == s {
			return i
		}
	}
	panic(fmt.Sprintf("pipeline: unknown stage %q", s))
}

// Stage versions. Each stage's implementation version participates in its
// content key, so shipping a changed stage invalidates exactly that stage
// and everything downstream of it — upstream artifacts stay warm. Bump a
// stage's version whenever its output for unchanged inputs can change.
// Execute has none: its run key chains on the program key, and a changed
// interpreter bumps the execution's wire kind instead.
var (
	versionMu sync.RWMutex
	versions  = map[Stage]string{
		StageLex:       "v1",
		StageParse:     "v1",
		StageTypecheck: "v1",
		StageLiveness:  "v1",
		StageAnnotate:  "v1",
		// v2: Call instructions carry the source line of the call site
		// (machine.Instr.Line), so cached v1 codegen artifacts — which lack
		// the field — must not satisfy builds that feed heap snapshots.
		StageCodegen:  "v2",
		StageOptimize: "v1",
		StagePeephole: "v1",
	}
)

// Version returns the stage's current implementation version string.
func Version(s Stage) string {
	versionMu.RLock()
	defer versionMu.RUnlock()
	return versions[s]
}

// SetVersionForTest overrides one stage's version and returns a restore
// function; tests use it to prove that a version bump invalidates cached
// artifacts.
func SetVersionForTest(s Stage, v string) (restore func()) {
	versionMu.Lock()
	old := versions[s]
	versions[s] = v
	versionMu.Unlock()
	return func() {
		versionMu.Lock()
		versions[s] = old
		versionMu.Unlock()
	}
}
