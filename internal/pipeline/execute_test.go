package pipeline

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"gcsafety/internal/artifact"
	"gcsafety/internal/gcsafe"
	"gcsafety/internal/interp"
	"gcsafety/internal/machine"
	"gcsafety/internal/workloads"
)

// build compiles src for the Execute tests and fails the test on error.
func build(t *testing.T, r *Runner, src string, o Options) *Result {
	t.Helper()
	b, err := r.Build(context.Background(), "exec.c", src, o)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestExecuteSharesRunAcrossCostModels: the SPARCstation 2 and 10 share
// one program and one run, and each caller gets the run priced on its
// own machine, exactly as a fresh run there would report it.
func TestExecuteSharesRunAcrossCostModels(t *testing.T) {
	r := NewRunner(artifact.New(0))
	w := workloads.All()[0]
	var cycles []uint64
	for i, cfg := range []machine.Config{machine.SPARCstation2(), machine.SPARCstation10()} {
		b := build(t, r, w.Source, Options{Optimize: true, Annotate: true, Machine: cfg})
		run := interp.Options{Config: cfg, Input: w.Input}
		got, hit, err := r.Execute(context.Background(), b.Prog, b.Key, run)
		if err != nil {
			t.Fatal(err)
		}
		if hit != (i == 1) {
			t.Errorf("%s: hit = %v", cfg.Name, hit)
		}
		want, err := interp.Run(b.Prog, run)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cycles != want.Cycles || got.Instrs != want.Instrs || got.Output != want.Output {
			t.Errorf("%s: shared run reports %d cycles, %d instrs; a fresh run %d, %d",
				cfg.Name, got.Cycles, got.Instrs, want.Cycles, want.Instrs)
		}
		cycles = append(cycles, got.Cycles)
	}
	if cycles[0] == cycles[1] {
		t.Fatal("the two cost models price the run alike; the test shows nothing")
	}
	if st := r.StageStats(StageExecute); st.Misses != 1 || st.Hits != 1 {
		t.Errorf("execute stage: %+v, want one run shared once", st)
	}
}

// checkFails reads far outside its object: the checked build's
// GC_same_obj check fires deterministically.
const checkFails = `
int main() {
    int *p = (int *)GC_malloc(16);
    int *q = p + 100;
    return *q;
}
`

// TestExecuteCachesRunError: a deterministic run error is the run's
// outcome, computed once and handed to every caller.
func TestExecuteCachesRunError(t *testing.T) {
	r := NewRunner(artifact.New(0))
	cfg := machine.SPARCstation10()
	b := build(t, r, checkFails, Options{Annotate: true, AnnotateOptions: gcsafe.Options{Mode: gcsafe.ModeChecked}, Machine: cfg})
	for i := 0; i < 2; i++ {
		_, hit, err := r.Execute(context.Background(), b.Prog, b.Key, interp.Options{Config: cfg})
		var ce *interp.CheckError
		if !errors.As(err, &ce) {
			t.Fatalf("call %d: err = %v, want a CheckError", i, err)
		}
		if hit != (i == 1) {
			t.Errorf("call %d: hit = %v", i, hit)
		}
	}
	if st := r.StageStats(StageExecute); st.Misses != 1 || st.Errors != 0 {
		t.Errorf("execute stage: %+v, want one computed run and no stage errors", st)
	}
}

// expiring is a context that reports cancellation from its polls'th Err
// call on: the run starts, then its context ends mid-run.
type expiring struct {
	context.Context
	polls atomic.Int32
}

func (c *expiring) Err() error {
	if c.polls.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestExecuteDoesNotCacheCancelledRun: a run cut short by its context is
// not the run's outcome; the next caller runs it in full.
func TestExecuteDoesNotCacheCancelledRun(t *testing.T) {
	r := NewRunner(artifact.New(0))
	cfg := machine.SPARCstation10()
	b := build(t, r, `int main() { int i; for (i = 0; i < 100000; i++) {} return 0; }`, Options{Machine: cfg})
	run := interp.Options{Config: cfg}
	ctx := &expiring{Context: context.Background()}
	ctx.polls.Store(3)
	if _, _, err := r.Execute(ctx, b.Prog, b.Key, run); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if _, ok := r.Cache().Get(run.Key(b.Key)); ok {
		t.Fatal("a cancelled run was cached")
	}
	res, hit, err := r.Execute(context.Background(), b.Prog, b.Key, run)
	if err != nil || hit || res.ExitCode != 0 {
		t.Fatalf("rerun: hit=%v err=%v", hit, err)
	}
	if st := r.StageStats(StageExecute); st.Errors != 1 || st.Misses != 1 {
		t.Errorf("execute stage: %+v, want one error and one computed run", st)
	}
}
