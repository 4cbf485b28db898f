package interp

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"

	"gcsafety/internal/faultinject"
	"gcsafety/internal/gc"
	"gcsafety/internal/heapdump"
	"gcsafety/internal/machine"
)

// Machine is one run's machine state: the simulated register file, stack
// and static segment, the collected heap, cycle/instruction accounting, the
// temporal shadow tags, the threads and their scheduler, and the snapshot
// handshake. The dispatch loop (dispatch.go) executes instructions against
// it; everything an instruction can touch lives here.
type Machine struct {
	prog *machine.Program
	// Opts is the run configuration (read-only after New).
	Opts Options
	// Ctx is the run's context, polled at the PollInterval stride.
	Ctx context.Context
	cfg machine.Config
	// heap is the conservative collector; Heap() exposes it.
	heap *gc.Heap
	// Regs is the current thread's register file (re-aimed on context
	// switch; slices are aliased, never copied, so the collector always
	// sees every thread's live registers).
	Regs []uint32
	// SP is the current stack pointer.
	SP     uint32
	static []byte
	stack  []byte
	byID   map[int32]*machine.Func
	meta   map[*machine.Func]*FuncMeta
	out    strings.Builder
	in     int
	// Instrs and OpCounts are the simulated accounting — the reproduction's
	// data: the executed instructions, in total and per opcode. They are
	// charged before the temporal track, both before the opcode executes.
	// The cost model stays out of the loop; result() prices the counts.
	Instrs   uint64
	OpCounts [machine.NumOps]uint64
	// RuntimeCycles accumulates the runtime routines' nominal costs
	// (runtime.go), which do not depend on the machine.
	RuntimeCycles uint64
	rng           uint32
	// Exited flips when the program calls exit(); the dispatch loop stops at
	// the next boundary.
	Exited bool
	exit   int32
	// SinceGC counts instructions since the last async collection.
	SinceGC uint64
	// argbuf backs RuntimeCall's argument slice so runtime dispatch —
	// including every checked-mode GC_same_obj/GC_pre_incr call — stays
	// allocation-free on the host.
	argbuf [8]uint32
	// TT is the temporal-mode shadow-tag state; nil unless Options.Temporal
	// (the hot loop pays one nil check).
	TT *TemporalState
	// StackLo/StackHi bound the current thread's stack segment for AdjSP;
	// they are the whole stack in single-thread mode.
	StackLo, StackHi uint32
	// The simulated threads (one in single-thread mode), the index of the
	// current one and the schedule's xorshift64 state.
	threads  []*mthread
	cur      int
	schedRng uint64
	// prof is the allocation-site profile; nil unless Options.HeapProfile
	// (runtime-call dispatch pays one nil check).
	prof *allocProf
	// snapPending holds at most one cross-goroutine snapshot request,
	// served at the context-poll stride; snapDone flips once the run is
	// over, after which requesters capture on their own goroutine. See
	// snapshot.go for the handshake.
	snapPending atomic.Pointer[snapRequest]
	snapDone    atomic.Bool
}

// New prepares a machine for one run of prog.
func New(prog *machine.Program, opts Options) *Machine {
	if opts.HeapBytes == 0 {
		opts.HeapBytes = 16 << 20
	}
	if opts.TriggerBytes == 0 {
		opts.TriggerBytes = 128 << 10
	}
	if opts.CollectAtEveryAlloc {
		opts.TriggerBytes = 1
	}
	if opts.MaxInstrs == 0 {
		opts.MaxInstrs = 2_000_000_000
	}
	if opts.Entry == "" {
		opts.Entry = "main"
	}
	c := &Machine{
		prog:   prog,
		Opts:   opts,
		Ctx:    context.Background(),
		cfg:    opts.Config,
		static: append([]byte(nil), prog.Data...),
		stack:  make([]byte, machine.StackTop-machine.StackLimit),
		byID:   map[int32]*machine.Func{},
		rng:    0x9E3779B9,
	}
	if opts.Temporal {
		c.TT = newTemporalState()
	}
	if opts.HeapProfile {
		c.prof = newAllocProf()
	}
	hcfg := gc.Config{
		MaxBytes:             opts.HeapBytes,
		TriggerBytes:         opts.TriggerBytes,
		Poison:               true,
		BaseOnlyHeapPointers: opts.BaseOnlyHeap,
	}
	if opts.Faults != nil {
		hcfg.Inject = opts.Faults.Fire
	}
	c.heap = gc.NewHeap(hcfg)
	c.heap.SetRoots(c)
	c.meta = make(map[*machine.Func]*FuncMeta, len(prog.Funcs))
	labels := make(map[string]map[int32]int, len(prog.Funcs))
	for name, f := range prog.Funcs {
		lm := map[int32]int{}
		for pc, in := range f.Code {
			if in.Op == machine.Label {
				lm[in.Imm] = pc
			}
		}
		labels[name] = lm
		c.byID[f.ID] = f
	}
	// Second pass: resolve branch targets and direct-call targets now that
	// every label and function is known. An unknown label resolves to pc 0,
	// matching the zero value the label-map lookup used to produce.
	for _, f := range prog.Funcs {
		c.meta[f] = &FuncMeta{
			Targets:    make([]int, len(f.Code)),
			Callees:    make([]*machine.Func, len(f.Code)),
			CalleeMeta: make([]*FuncMeta, len(f.Code)),
		}
	}
	for _, f := range prog.Funcs {
		fm := c.meta[f]
		lm := labels[f.Name]
		for pc, in := range f.Code {
			switch in.Op {
			case machine.Jmp, machine.Bz, machine.Bnz:
				fm.Targets[pc] = lm[in.Imm]
			case machine.Call:
				if callee := prog.Funcs[in.Sym]; callee != nil {
					fm.Callees[pc] = callee
					fm.CalleeMeta[pc] = c.meta[callee]
				}
			}
		}
	}
	return c
}

// Run executes the entry function to completion.
func (c *Machine) Run() (*Result, error) {
	return c.RunContext(context.Background())
}

// RunContext executes the entry function to completion or until ctx is
// done, whichever comes first. Every run goes through runThreads
// (threads.go): a single-thread run is thread 0 with an unbounded quantum.
func (c *Machine) RunContext(ctx context.Context) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	c.Ctx = ctx
	defer c.finishSnapshots()
	entry, ok := c.prog.Funcs[c.Opts.Entry]
	if !ok {
		return nil, fmt.Errorf("interp: no function %q", c.Opts.Entry)
	}
	if err := ctx.Err(); err != nil {
		return c.result(), fmt.Errorf("interp: %w", err)
	}
	runErr := c.runThreads(entry)
	res := c.result()
	if c.Opts.HeapProfile {
		trigger, addr := snapshotTrigger(runErr)
		reason := ""
		if runErr != nil {
			reason = runErr.Error()
		}
		if snap, err := c.CaptureSnapshot(trigger, reason, addr); err != nil {
			res.SnapshotErr = err.Error()
		} else {
			res.Snapshot = snap
		}
	}
	return res, runErr
}

// Poll is the dispatch loop's safe-point body: context cancellation, the
// interp.step fault point, and the cross-goroutine snapshot handshake, in
// that order. The loop calls it when the poll countdown reaches zero
// (every PollInterval instructions).
func (c *Machine) Poll() error {
	if err := c.Ctx.Err(); err != nil {
		return err
	}
	// Fault injection shares the poll stride so an inert run pays nothing
	// beyond the existing branch.
	if f := c.Opts.Faults; f != nil {
		if err := f.Fire(faultinject.PointInterpStep); err != nil {
			return err
		}
	}
	// Cross-goroutine snapshot requests are served here: the poll stride
	// is the machine's safe point (mutator stopped).
	if c.snapPending.Load() != nil {
		c.serveSnapshot()
	}
	return nil
}

func (c *Machine) result() *Result {
	res := &Result{
		Output:        c.out.String(),
		ExitCode:      c.exit,
		Instrs:        c.Instrs,
		OpCounts:      c.OpCounts,
		RuntimeCycles: c.RuntimeCycles,
		GCStats:       c.heap.Stats(),
	}
	res.Cycles = res.Price(c.cfg)
	return res
}

// A RootSegment is one contiguous piece of the machine's GC root set: a
// thread's register file, the live part of a thread's stack, or the static
// data segment. The slices alias machine state and are valid only until
// the mutator next runs.
type RootSegment struct {
	Kind   string // heapdump.RootReg, heapdump.RootStack or heapdump.RootStatic
	Thread int    // owning thread; 0 for the static segment
	// Base is the simulated address of Mem[0] (0 for registers).
	Base uint32
	// Regs holds the register words (RootReg only).
	Regs []uint32
	// Mem holds the segment's bytes, a whole number of little-endian words
	// (RootStack and RootStatic only).
	Mem []byte
}

// WalkRoots calls fn for every root segment: each live thread's registers
// and stack from its (word-aligned) stack pointer up, then the static
// segment. Every live thread's registers and stack are roots: a collection
// one thread triggers must see the pointers every other thread still
// holds. The collector (ScanRoots) and heap snapshots (emitRoots) both
// walk the roots through here, so they see the same set.
func (c *Machine) WalkRoots(fn func(RootSegment)) {
	for i, t := range c.threads {
		if t.done {
			continue
		}
		sp := t.sp
		if i == c.cur {
			sp = c.SP // regs alias t.regs; only sp is cached in c
		}
		fn(RootSegment{Kind: heapdump.RootReg, Thread: i, Regs: t.regs})
		fn(c.stackSegment(i, sp, t.hi))
	}
	fn(RootSegment{Kind: heapdump.RootStatic, Base: machine.DataBase, Mem: c.static[:len(c.static)&^3]})
}

// stackSegment is the live stack of one thread: the words from sp (rounded
// down to a word boundary) up to the thread's stack top hi.
func (c *Machine) stackSegment(thread int, sp, hi uint32) RootSegment {
	lo := sp &^ 3
	if lo > hi {
		lo = hi
	}
	return RootSegment{Kind: heapdump.RootStack, Thread: thread, Base: lo,
		Mem: c.stack[lo-machine.StackLimit : hi-machine.StackLimit]}
}

// ScanRoots implements gc.RootScanner: registers go through visit one word
// at a time, memory segments to the collector's bulk MarkSegment.
func (c *Machine) ScanRoots(visit func(gc.Addr)) {
	c.WalkRoots(func(s RootSegment) {
		for _, r := range s.Regs {
			visit(r)
		}
		c.heap.MarkSegment(s.Mem)
	})
}

// Stats exposes collector statistics mid-run (for tests).
func (c *Machine) Stats() gc.Stats { return c.heap.Stats() }

// Heap exposes the collector (for tests and the checker example).
func (c *Machine) Heap() *gc.Heap { return c.heap }
