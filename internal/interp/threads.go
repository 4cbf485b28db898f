package interp

import (
	"errors"
	"fmt"

	"gcsafety/internal/faultinject"
	"gcsafety/internal/machine"
)

// Concurrent-mutator simulation. The machine stays single-threaded on the
// host: N simulated mutator threads share one heap, one static segment and
// one output stream, and are interleaved cooperatively — round-robin over
// the runnable threads, with quantum lengths drawn from a seeded xorshift64
// and bounded by the poll stride. The schedule is a pure function of
// (program, input, seed): every run of a treatment is bit-identical, which
// is what lets concurrent treatments participate in differential testing
// at all. The scheduler dispatches every opcode through the cold-path
// Step. Thread 0 executes the entry function; thread i executes the
// program's "thread<i>" function when defined (absent workers are
// skipped). The stack is carved into equal per-thread segments, thread 0
// topmost. A fault in any thread aborts the whole run; exit() stops all
// threads.

// errJoinWait is the internal sentinel the join_threads builtin returns
// while sibling threads are still running: the scheduler rewinds the call
// instruction and retries it on the thread's next quantum.
var errJoinWait = errors.New("join_threads: siblings still running")

// mthread is one simulated mutator thread: a frame stack plus the
// per-thread machine state (registers, stack pointer, stack segment
// bounds, temporal shadow tags for the register file).
type mthread struct {
	id      int
	frames  []Frame
	regs    []uint32
	regTags []uint32 // nil unless temporal mode
	sp      uint32
	lo, hi  uint32 // stack segment bounds
	done    bool
}

// threadEntryName is the naming convention binding worker i to its entry
// function.
func threadEntryName(i int) string { return fmt.Sprintf("thread%d", i) }

// runThreads executes entry as thread 0 alongside up to Threads-1 workers.
func (c *Machine) runThreads(entry *machine.Func) error {
	n := c.Opts.Threads
	total := uint32(machine.StackTop - machine.StackLimit)
	seg := (total / uint32(n)) &^ 255
	if seg < 4096 {
		return fmt.Errorf("interp: %d threads leave only %d bytes of stack each", n, seg)
	}
	for i := 0; i < n; i++ {
		fn := entry
		if i > 0 {
			fn = c.prog.Funcs[threadEntryName(i)]
			if fn == nil {
				continue
			}
		}
		hi := uint32(machine.StackTop) - uint32(i)*seg
		t := &mthread{
			id:   i,
			regs: make([]uint32, len(c.Regs)),
			sp:   hi,
			lo:   hi - seg,
			hi:   hi,
		}
		if c.TT != nil {
			t.regTags = make([]uint32, len(c.Regs))
		}
		t.frames = append(t.frames, Frame{Fn: fn, PC: 0, SavedSP: hi, RetReg: machine.NoReg})
		c.threads = append(c.threads, t)
	}
	c.schedRng = c.Opts.SchedSeed
	if c.schedRng == 0 {
		c.schedRng = 0x9E3779B97F4A7C15
	}
	c.cur = -1
	for !c.Exited {
		next := c.pickThread()
		if next < 0 {
			break // every thread ran to completion
		}
		if next != c.cur {
			c.switchTo(next)
			if c.Opts.CollectAtSwitch {
				c.heap.Collect()
			}
		}
		quantum := 1 + c.schedNext()%PollInterval
		if err := c.execQuantum(c.threads[next], quantum); err != nil {
			return err
		}
	}
	return nil
}

// pickThread selects the next runnable thread, round-robin from the one
// after the current.
func (c *Machine) pickThread() int {
	n := len(c.threads)
	if n == 0 {
		return -1
	}
	start := (c.cur + 1 + n) % n
	for k := 0; k < n; k++ {
		i := (start + k) % n
		if !c.threads[i].done {
			return i
		}
	}
	return -1
}

// schedNext advances the schedule's xorshift64 state.
func (c *Machine) schedNext() uint64 {
	x := c.schedRng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	c.schedRng = x
	return x
}

// switchTo makes thread i current: the outgoing thread's stack pointer is
// saved, and the machine's register file, stack bounds and temporal tags
// are re-aimed at the incoming thread's. Register slices are aliased, not
// copied, so the collector always sees every thread's live registers.
func (c *Machine) switchTo(i int) {
	if c.cur >= 0 {
		c.threads[c.cur].sp = c.SP
	}
	t := c.threads[i]
	c.cur = i
	c.Regs = t.regs
	c.SP = t.sp
	c.StackLo, c.StackHi = t.lo, t.hi
	if c.TT != nil {
		c.TT.regTags = t.regTags
	}
}

// threadsRemaining reports whether any thread other than the current one is
// still running (the join_threads condition).
func (c *Machine) threadsRemaining() bool {
	for i, t := range c.threads {
		if i != c.cur && !t.done {
			return true
		}
	}
	return false
}

// execQuantum runs up to quantum instructions of thread t. It mirrors the
// single-thread loop's per-instruction bookkeeping (instruction budget,
// context poll, per-opcode count, asynchronous-GC tick) but dispatches
// every opcode through the cold-path Step: concurrent treatments are new
// measurement columns, not cycle-compatible reruns of the single-thread
// numbers, so the dispatch loop's inline fast paths are not duplicated
// here.
func (c *Machine) execQuantum(t *mthread, quantum uint64) error {
	var (
		maxInstrs = c.Opts.MaxInstrs
		gcEvery   = c.Opts.GCEveryInstrs
		faults    = c.Opts.Faults
	)
	for quantum > 0 && len(t.frames) > 0 && !c.Exited {
		fr := &t.frames[len(t.frames)-1]
		if fr.PC >= len(fr.Fn.Code) {
			c.popFrame(t, 0, true) // fall off the end: return 0
			continue
		}
		in := &fr.Fn.Code[fr.PC]
		if c.Instrs >= maxInstrs {
			return &FaultError{Fn: fr.Fn.Name, PC: fr.PC,
				Err: fmt.Errorf("%w (%d)", ErrInstrLimit, maxInstrs)}
		}
		if c.Instrs%PollInterval == 0 {
			if err := c.Ctx.Err(); err != nil {
				return &FaultError{Fn: fr.Fn.Name, PC: fr.PC, Err: err}
			}
			if faults != nil {
				if err := faults.Fire(faultinject.PointInterpStep); err != nil {
					return &FaultError{Fn: fr.Fn.Name, PC: fr.PC, Err: err}
				}
			}
			// The concurrent scheduler's poll is also a snapshot-serving
			// safe point: all mutator threads are stopped here.
			if c.snapPending.Load() != nil {
				c.serveSnapshot()
			}
		}
		c.Instrs++
		c.OpCounts[in.Op]++
		if gcEvery > 0 {
			c.SinceGC++
			if c.SinceGC >= gcEvery {
				c.SinceGC = 0
				c.heap.Collect()
			}
		}
		quantum--
		if c.TT != nil {
			if err := c.Track(in); err != nil {
				return &FaultError{Fn: fr.Fn.Name, PC: fr.PC, Err: err}
			}
		}
		pc := fr.PC
		fr.PC = pc + 1
		ret, push, err := c.Step(fr, in)
		if err != nil {
			if errors.Is(err, errJoinWait) {
				fr.PC = pc // retry the join on the next quantum
				return nil // yield
			}
			return &FaultError{Fn: fr.Fn.Name, PC: pc, Err: err}
		}
		if push != nil {
			t.frames = append(t.frames, *push)
			continue
		}
		if ret {
			c.popFrame(t, c.PendingRet, false)
		}
	}
	if len(t.frames) == 0 {
		t.done = true
	}
	return nil
}

// popFrame completes t's top frame, restoring the caller's stack pointer
// and delivering val to the result register (with its temporal tag, unless
// the frame fell off the end, which returns an untagged 0).
func (c *Machine) popFrame(t *mthread, val uint32, fallOff bool) {
	fr := &t.frames[len(t.frames)-1]
	c.SP = fr.SavedSP
	c.SetReg(fr.RetReg, val)
	if c.TT != nil {
		if fallOff {
			c.TT.SetTag(fr.RetReg, 0)
		} else {
			c.TT.SetTag(fr.RetReg, c.TT.RetTag)
		}
	}
	t.frames = t.frames[:len(t.frames)-1]
}
