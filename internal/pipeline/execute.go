package pipeline

import (
	"context"
	"errors"

	"gcsafety/internal/artifact"
	"gcsafety/internal/faultinject"
	"gcsafety/internal/interp"
	"gcsafety/internal/machine"
)

// execution is the Execute stage's artifact: one run's result and the
// error it ended with. A deterministic run error (a failed check, the
// step limit, a machine fault) is part of the outcome, so every caller
// that shares the run sees it without running again.
type execution struct {
	res *interp.Result
	err error
}

// size is the execution's LRU-budget charge.
func (x *execution) size() int64 {
	if x.res == nil {
		return 256
	}
	n := int64(len(x.res.Output)+8*machine.NumOps) + 256
	if x.res.Snapshot != nil {
		n += x.res.Snapshot.AccountedSize()
	}
	return n
}

// Execute runs prog, the program whose content key is progKey, under run:
// the pipeline's last stage. Runs are deterministic, so the outcome, run
// error included, is cached under run.Key(progKey) and every caller with
// that key shares one run; the key leaves the cost model out, so callers
// on the SPARCstation 2 and 10 share one. Never cached are a run with
// faults armed (run.Faults, or a fault set on ctx), whose outcome the key
// does not describe, and a run that ended in a context error, which is
// the caller's and not the run's.
//
// The result is the caller's copy, priced on run.Config; its Snapshot is
// shared and must not be modified. hit reports that this call did not
// run the program. The error is the run's own, a context error, or a
// fault injected at the stage.
func (r *Runner) Execute(ctx context.Context, prog *machine.Program, progKey artifact.Key, run interp.Options) (*interp.Result, bool, error) {
	var key artifact.Key
	if run.Faults == nil && faultinject.For(ctx) == nil {
		key = run.Key(progKey)
	}
	v, hit, err := r.run(ctx, StageExecute, key, nil, func() (any, int64, error) {
		return execute(ctx, prog, run)
	})
	if err != nil {
		return nil, false, err
	}
	res, err := v.(*execution).priced(run.Config)
	return res, hit, err
}

// execute is the Execute stage's computation: one run of prog.
func execute(ctx context.Context, prog *machine.Program, run interp.Options) (any, int64, error) {
	res, err := interp.RunContext(ctx, prog, run)
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return nil, 0, err
	}
	x := &execution{res: res, err: err}
	return x, x.size(), nil
}

// priced returns the caller's copy of the run's result, priced on cfg,
// and the run's error.
func (x *execution) priced(cfg machine.Config) (*interp.Result, error) {
	if x.res == nil {
		return nil, x.err
	}
	res := *x.res
	res.Cycles = res.Price(cfg)
	return &res, x.err
}

// Outcome reads the Execute artifact a Peer's Computed is handed: the
// run's result, priced on the machine it ran for, and its error.
func Outcome(v any) (*interp.Result, error) {
	x := v.(*execution)
	return x.res, x.err
}
