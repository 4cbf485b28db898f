// Package interp executes compiled programs on the simulated machine,
// linking them against the conservative collector and the native runtime
// library (the unpreprocessed "standard C library" of the paper's
// methodology). It provides:
//
//   - deterministic cycle accounting under a machine cost model, the
//     basis for every performance table in EXPERIMENTS.md;
//   - conservative root scanning of the register file, the stack and the
//     static data segment;
//   - two collection-trigger regimes: allocation-triggered only (the
//     paper's "collections triggered only at procedure calls" discussion)
//     and asynchronous (a collection may fire between any two
//     instructions), which is the regime the safety argument must survive;
//   - an optional access validator that detects loads and stores to
//     reclaimed heap objects — the harness's premature-collection detector
//     (never part of the cost model).
//
// The machine state lives in core.go, the one instruction loop in
// dispatch.go, the cold-path opcodes in step.go, the runtime library in
// runtime.go, the temporal checker in temporal.go and the thread
// scheduler, which drives the loop for every run, in threads.go.
package interp

import (
	"context"

	"gcsafety/internal/machine"
)

// Run executes the program and returns the result.
func Run(prog *machine.Program, opts Options) (*Result, error) {
	return RunContext(context.Background(), prog, opts)
}

// RunContext executes the program under ctx: cancellation or deadline
// expiry aborts the run between two instructions with an error wrapping
// ctx.Err(). This is the entry point the gcsafed daemon uses to bound
// adversarial inputs.
func RunContext(ctx context.Context, prog *machine.Program, opts Options) (*Result, error) {
	return New(prog, opts).RunContext(ctx)
}
