package interp

import (
	"errors"
	"fmt"

	"gcsafety/internal/faultinject"
	"gcsafety/internal/gc"
	"gcsafety/internal/heapdump"
	"gcsafety/internal/machine"
)

// ErrInstrLimit is the sentinel wrapped by the fault produced when a run
// exhausts Options.MaxInstrs. Callers distinguish a runaway program
// (errors.Is(err, ErrInstrLimit)) from a genuine memory fault.
var ErrInstrLimit = errors.New("instruction budget exhausted")

// PollInterval is how many instructions execute between polls of the
// run's context. Polling a context involves an atomic load and possibly a
// channel select, far more than one simulated instruction; amortizing it
// over a power-of-two stride keeps cancellation latency in the microsecond
// range while costing the dispatch loop nothing measurable. The poll
// schedule is part of the simulated behaviour: fault injection fires on it.
const PollInterval = 1024

// Options configures one execution.
type Options struct {
	Config machine.Config
	// HeapBytes caps the collected heap (default 16 MiB).
	HeapBytes uint32
	// TriggerBytes is the allocation-trigger threshold (default 128 KiB).
	TriggerBytes uint32
	// GCEveryInstrs, when nonzero, additionally triggers a collection every
	// N executed instructions — the asynchronous-collector regime.
	GCEveryInstrs uint64
	// CollectAtEveryAlloc forces a full collection at every allocation —
	// the adversarial schedule of the differential fuzzing harness
	// (internal/fuzz). Combined with GCEveryInstrs=1 and Validate it is the
	// most hostile regime the machine can present to a program: any object
	// whose last recognizable reference dies too early is reclaimed and the
	// next access to it faults. It overrides TriggerBytes.
	CollectAtEveryAlloc bool
	// Validate checks every heap access against the live-object map,
	// catching use of prematurely collected objects. Purely a harness
	// feature; adds no cycles.
	Validate bool
	// MaxInstrs aborts runaway programs (default 2e9).
	MaxInstrs uint64
	// BaseOnlyHeap enables the collector's Extensions-section operating
	// mode: interior pointers stored in heap objects are not recognized as
	// references (see internal/gc/extension.go).
	BaseOnlyHeap bool
	// Temporal arms the temporal-safety checker: allocation results carry
	// their birth epoch through shadow tags on registers and memory words,
	// and any access through a pointer whose epoch no longer matches the
	// object at its target faults with a TemporalError (use-after-free /
	// recycled-storage detection; see temporal.go). Like Validate, a harness
	// feature: adds no cycles.
	Temporal bool
	// Threads, when > 1, executes the program as N concurrent mutator
	// threads over one shared heap: thread 0 runs Entry and thread i
	// (0 < i < N) runs the function named "thread<i>" when the program
	// defines it. Scheduling is deterministic — round-robin over runnable
	// threads with quantum lengths drawn from SchedSeed (see threads.go).
	Threads int
	// SchedSeed seeds the interleaving schedule (0 selects a fixed default).
	SchedSeed uint64
	// CollectAtSwitch forces a full collection at every context switch: the
	// collect-at-every-alloc adversary generalized to adversarial
	// interleavings.
	CollectAtSwitch bool
	// Input is the byte stream consumed by getchar().
	Input string
	// Entry is the function to run (default "main").
	Entry string
	// Faults, when non-nil, arms the run's fault points: "interp.step"
	// (fired at the context-poll stride; an error aborts the run with a
	// machine fault), "heapdump.capture" (fails snapshot captures) and,
	// via the heap's Config.Inject hook, "gc.alloc", "gc.collect.force"
	// and "gc.collect". Nil is fully inert.
	Faults *faultinject.Set
	// HeapProfile records allocation sites during the run and captures a
	// heap snapshot when it ends (Result.Snapshot): trigger "exit" on a
	// clean exit, "violation" when a safety checker fired, "fault"
	// otherwise. Off, it costs the dispatch loop nothing; on, it costs one
	// map insert per allocation — allocations are already collector-priced,
	// so the cost model is unchanged either way.
	HeapProfile bool
}

// Result reports one execution.
type Result struct {
	Output   string
	ExitCode int32
	// Cycles is the run priced on Options.Config: Price(Options.Config).
	Cycles uint64
	Instrs uint64
	// OpCounts counts the executed instructions per opcode; they sum to
	// Instrs.
	OpCounts [machine.NumOps]uint64
	// RuntimeCycles is the runtime routines' share of Cycles. Their
	// nominal costs do not depend on the machine.
	RuntimeCycles uint64
	GCStats       gc.Stats
	// Snapshot is the end-of-run heap snapshot (Options.HeapProfile only;
	// nil otherwise). SnapshotErr records a failed capture — the run's own
	// outcome is reported normally either way.
	Snapshot    *heapdump.Snapshot
	SnapshotErr string
}

// Price returns the run's simulated cycles on cfg: RuntimeCycles plus
// every executed instruction at cfg's cost. Execution never reads the cost
// model, so a result repriced for a config that differs from the run's
// only in Costs is the Cycles a run on that config would report.
func (r *Result) Price(cfg machine.Config) uint64 {
	cycles := r.RuntimeCycles
	for op, n := range r.OpCounts {
		if n != 0 {
			cycles += n * cfg.CostOf(machine.Op(op))
		}
	}
	return cycles
}

// A FaultError reports a memory or checking fault with machine context.
type FaultError struct {
	Fn  string
	PC  int
	Err error
}

func (e *FaultError) Error() string {
	return fmt.Sprintf("fault in %s at pc %d: %v", e.Fn, e.PC, e.Err)
}

func (e *FaultError) Unwrap() error { return e.Err }

// CheckError is the error produced when a GC_same_obj-style runtime check
// fails (the paper's pointer-arithmetic checker firing).
type CheckError struct{ Err error }

func (e *CheckError) Error() string { return "pointer check failed: " + e.Err.Error() }
func (e *CheckError) Unwrap() error { return e.Err }
