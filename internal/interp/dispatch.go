package interp

import (
	"errors"
	"fmt"

	"gcsafety/internal/machine"
)

// run executes thread t on its own frame stack for at most quantum
// instructions, so a collection can fire between any two instructions. It
// returns nil when the quantum runs out, when join_threads must wait for
// sibling threads, when t's frames are empty or when the program exits;
// t's frames then say where the thread resumes. It is the interpreter's
// only instruction loop: a single-thread run is one call with an unbounded
// quantum, and the concurrent scheduler (threads.go) calls it once per
// quantum.
//
// The loop is the interpreter's hottest code: the common opcodes (ALU,
// loads/stores, branches, calls and returns) are dispatched inline here,
// with the program counter, code slice and per-function metadata (resolved
// branch targets and direct-call targets) held in locals for the duration
// of a frame activation; the rest fall back to step. Per-instruction
// bookkeeping is kept to one budget compare (the quantum is folded into
// the instruction limit), a poll countdown, one per-opcode count, and —
// only when the asynchronous regime is armed — the GC tick. Cycles are not
// charged here: result() prices the counts after the run, so the loop
// never reads the cost model. The instruction accounting, the poll
// schedule and the collection schedule are the reproduction's data.
func (c *Machine) run(t *mthread, quantum uint64) error {
	var (
		maxInstrs = c.Opts.MaxInstrs
		gcEvery   = c.Opts.GCEveryInstrs
		counts    = &c.OpCounts
		// tt is nil outside temporal mode; holding it in a local keeps the
		// per-instruction shadow-tag branch off a field load.
		tt = c.TT
		// pollCd counts down to the next context poll so the hot loop pays
		// one decrement instead of a modulo. It reproduces the schedule
		// "poll when Instrs is a multiple of PollInterval" exactly.
		pollCd = c.Instrs % PollInterval
		// stop is the one bound the loop compares against: the end of the
		// quantum or the instruction budget, whichever comes first. Past
		// it, yield says which; when both end together the thread yields,
		// and the budget fault waits for the next quantum.
		stop  = maxInstrs
		yield = quantum <= maxInstrs-c.Instrs
	)
	if yield {
		stop = c.Instrs + quantum
	}
	if pollCd != 0 {
		pollCd = PollInterval - pollCd
	}
	for len(t.frames) > 0 && !c.Exited {
		fr := &t.frames[len(t.frames)-1]
		fn := fr.Fn
		code := fn.Code
		meta := fr.Meta
		pc := fr.PC
	frame:
		for {
			if pc >= len(code) {
				if yield && c.Instrs >= stop {
					fr.PC = pc
					return nil
				}
				// fall off the end: return 0
				c.SP = fr.SavedSP
				c.SetReg(fr.RetReg, 0)
				if tt != nil {
					tt.SetTag(fr.RetReg, 0)
				}
				t.frames = t.frames[:len(t.frames)-1]
				break frame
			}
			in := &code[pc]
			if c.Instrs >= stop {
				fr.PC = pc
				if yield {
					return nil
				}
				return &FaultError{Fn: fn.Name, PC: pc,
					Err: fmt.Errorf("%w (%d)", ErrInstrLimit, maxInstrs)}
			}
			if pollCd == 0 {
				if err := c.Poll(); err != nil {
					fr.PC = pc
					return &FaultError{Fn: fn.Name, PC: pc, Err: err}
				}
				pollCd = PollInterval
			}
			pollCd--
			c.Instrs++
			counts[in.Op]++
			// Asynchronous collection regime: a GC may fire between any two
			// instructions.
			if gcEvery > 0 {
				c.SinceGC++
				if c.SinceGC >= gcEvery {
					c.SinceGC = 0
					c.heap.Collect()
				}
			}
			if tt != nil {
				if err := c.Track(in); err != nil {
					fr.PC = pc
					return &FaultError{Fn: fn.Name, PC: pc, Err: err}
				}
			}
			pc++
			switch in.Op {
			case machine.Add:
				c.SetReg(in.Rd, c.Reg(in.Rs1)+c.Src2(in))
			case machine.Sub:
				c.SetReg(in.Rd, c.Reg(in.Rs1)-c.Src2(in))
			case machine.Mov:
				c.SetReg(in.Rd, c.Src2First(in))
			case machine.Ld:
				v, e := c.Read32(c.Reg(in.Rs1) + c.Src2(in))
				if e != nil {
					fr.PC = pc
					return &FaultError{Fn: fn.Name, PC: pc - 1, Err: e}
				}
				c.SetReg(in.Rd, v)
			case machine.St:
				if e := c.Write32(c.Reg(in.Rs1)+c.Src2(in), c.Reg(in.Rd)); e != nil {
					fr.PC = pc
					return &FaultError{Fn: fn.Name, PC: pc - 1, Err: e}
				}
			case machine.LdSP:
				v, e := c.Read32(c.SP + uint32(in.Imm))
				if e != nil {
					fr.PC = pc
					return &FaultError{Fn: fn.Name, PC: pc - 1, Err: e}
				}
				c.SetReg(in.Rd, v)
			case machine.StSP, machine.Arg:
				if e := c.Write32(c.SP+uint32(in.Imm), c.Reg(in.Rd)); e != nil {
					fr.PC = pc
					return &FaultError{Fn: fn.Name, PC: pc - 1, Err: e}
				}
			case machine.LeaSP:
				c.SetReg(in.Rd, c.SP+uint32(in.Imm))
			case machine.Jmp:
				pc = meta.Targets[pc-1]
			case machine.Bz:
				if c.Reg(in.Rs1) == 0 {
					pc = meta.Targets[pc-1]
				}
			case machine.Bnz:
				if c.Reg(in.Rs1) != 0 {
					pc = meta.Targets[pc-1]
				}
			case machine.CmpEq:
				c.SetReg(in.Rd, b2u(c.Reg(in.Rs1) == c.Src2(in)))
			case machine.CmpNe:
				c.SetReg(in.Rd, b2u(c.Reg(in.Rs1) != c.Src2(in)))
			case machine.CmpLt:
				c.SetReg(in.Rd, b2u(int32(c.Reg(in.Rs1)) < int32(c.Src2(in))))
			case machine.CmpLe:
				c.SetReg(in.Rd, b2u(int32(c.Reg(in.Rs1)) <= int32(c.Src2(in))))
			case machine.CmpGt:
				c.SetReg(in.Rd, b2u(int32(c.Reg(in.Rs1)) > int32(c.Src2(in))))
			case machine.CmpGe:
				c.SetReg(in.Rd, b2u(int32(c.Reg(in.Rs1)) >= int32(c.Src2(in))))
			case machine.CmpLtu:
				c.SetReg(in.Rd, b2u(c.Reg(in.Rs1) < c.Src2(in)))
			case machine.CmpLeu:
				c.SetReg(in.Rd, b2u(c.Reg(in.Rs1) <= c.Src2(in)))
			case machine.CmpGtu:
				c.SetReg(in.Rd, b2u(c.Reg(in.Rs1) > c.Src2(in)))
			case machine.CmpGeu:
				c.SetReg(in.Rd, b2u(c.Reg(in.Rs1) >= c.Src2(in)))
			case machine.Nop, machine.Label:
			case machine.KeepLive:
				// The empty asm: value flows through unchanged; the base
				// operand is merely kept live by its presence here.
				c.SetReg(in.Rd, c.Reg(in.Rs1))
			case machine.AdjSP:
				ns := c.SP + uint32(in.Imm)
				if ns < c.StackLo || ns > c.StackHi {
					fr.PC = pc
					return &FaultError{Fn: fn.Name, PC: pc - 1,
						Err: fmt.Errorf("stack overflow (sp=%#x)", ns)}
				}
				if ns < c.stackBase {
					c.growStack(ns)
				}
				c.SP = ns
			case machine.Ret:
				c.SP = fr.SavedSP
				c.SetReg(fr.RetReg, c.Reg(in.Rs1)) // a bare ret reads NoReg: 0
				if tt != nil {
					tt.SetTag(fr.RetReg, tt.RetTag)
				}
				t.frames = t.frames[:len(t.frames)-1]
				break frame
			case machine.Call:
				if callee := meta.Callees[pc-1]; callee != nil {
					fr.PC = pc
					t.frames = append(t.frames, Frame{Fn: callee, SavedSP: c.SP,
						RetReg: in.Rd, Meta: meta.CalleeMeta[pc-1]})
					break frame
				}
				v, err := c.RuntimeCall(fn.Name, in)
				if err != nil {
					if errors.Is(err, errJoinWait) {
						fr.PC = pc - 1 // retry the join on the thread's next quantum
						return nil
					}
					fr.PC = pc
					return &FaultError{Fn: fn.Name, PC: pc - 1, Err: err}
				}
				c.SetReg(in.Rd, v)
				if tt != nil {
					tt.SetTag(in.Rd, tt.RetTag)
				}
				if c.Exited {
					fr.PC = pc
					return nil
				}
			case machine.CallR:
				id := int32(c.Reg(in.Rs1))
				callee, ok := c.byID[id]
				if !ok {
					fr.PC = pc
					return &FaultError{Fn: fn.Name, PC: pc - 1,
						Err: fmt.Errorf("indirect call to invalid function id %d", id)}
				}
				fr.PC = pc
				t.frames = append(t.frames, Frame{Fn: callee, SavedSP: c.SP,
					RetReg: in.Rd, Meta: c.meta[callee]})
				break frame
			default:
				if err := c.step(in); err != nil {
					fr.PC = pc
					return &FaultError{Fn: fn.Name, PC: pc - 1, Err: err}
				}
			}
		}
	}
	return nil
}
