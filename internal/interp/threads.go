package interp

import (
	"errors"
	"fmt"
	"math"

	"gcsafety/internal/machine"
)

// Thread scheduling. The machine stays single-threaded on the host: N
// simulated mutator threads share one heap, one static segment and one
// output stream, and are interleaved cooperatively — round-robin over the
// runnable threads, with quantum lengths drawn from a seeded xorshift64
// and bounded by the poll stride. The schedule is a pure function of
// (program, input, seed): every run of a treatment is bit-identical, which
// is what lets concurrent treatments participate in differential testing
// at all. Every quantum runs through the one dispatch loop, run, and a
// single-thread run is thread 0 alone with an unbounded quantum. Thread 0
// executes the entry function; thread i executes the program's
// "thread<i>" function when defined (absent workers are skipped). The
// stack is carved into equal per-thread segments, thread 0 topmost. A
// fault in any thread aborts the whole run; exit() stops all threads.

// errJoinWait is the internal sentinel the join_threads builtin returns
// while sibling threads are still running: the dispatch loop rewinds the
// call instruction and yields, and the thread retries it on its next
// quantum.
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
	n := max(c.Opts.Threads, 1)
	// Divide in 64 bits: a thread count past 2^32 must not truncate to a
	// zero divisor.
	seg := uint32((uint64(machine.StackTop-machine.StackLimit) / uint64(n)) &^ 255)
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
		c.growStack(hi) // back the segment's (empty) root range [sp, hi)
		t := &mthread{
			id:   i,
			regs: make([]uint32, c.cfg.NumRegs),
			sp:   hi,
			lo:   hi - seg,
			hi:   hi,
		}
		if c.TT != nil {
			t.regTags = make([]uint32, c.cfg.NumRegs)
		}
		t.frames = append(t.frames, Frame{Fn: fn, SavedSP: hi, RetReg: machine.NoReg, Meta: c.meta[fn]})
		c.threads = append(c.threads, t)
	}
	c.cur = -1
	if n == 1 {
		// No schedule: no draws from the schedule seed, no context switch
		// and so no CollectAtSwitch collection. The lone thread is never
		// marked done, so its registers stay roots of the exit snapshot.
		c.switchTo(0)
		return c.run(c.threads[0], math.MaxUint64)
	}
	c.schedRng = c.Opts.SchedSeed
	if c.schedRng == 0 {
		c.schedRng = 0x9E3779B97F4A7C15
	}
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
		t := c.threads[next]
		if err := c.run(t, 1+c.schedNext()%PollInterval); err != nil {
			return err
		}
		t.done = len(t.frames) == 0
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
