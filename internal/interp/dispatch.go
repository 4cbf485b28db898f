package interp

import (
	"fmt"

	"gcsafety/internal/machine"
)

// call runs fn to completion (including nested calls) using an explicit
// frame stack, so a collection can fire between any two instructions.
//
// The loop is the interpreter's hottest code: the common opcodes (ALU,
// loads/stores, branches, call/ret) are dispatched inline here, with the
// program counter, code slice and per-function metadata (resolved branch
// targets and direct-call targets) held in locals for the duration of a
// frame activation; everything else falls back to Step.
// Per-instruction bookkeeping is kept to the instruction budget check, a
// poll countdown (replacing the old modulo), one per-opcode count, and —
// only when the asynchronous regime is armed — the GC tick. Cycles are not
// charged here: result() prices the counts after the run, so the loop
// never reads the cost model. The instruction accounting, the poll
// schedule and the collection schedule are bit-identical to the
// pre-fast-path interpreter: those numbers are the reproduction's data.
func (c *Machine) call(entry *machine.Func, retReg machine.Reg) error {
	stack := make([]Frame, 1, 16)
	stack[0] = Frame{Fn: entry, PC: 0, SavedSP: c.SP, RetReg: retReg}
	var (
		maxInstrs = c.Opts.MaxInstrs
		gcEvery   = c.Opts.GCEveryInstrs
		counts    = &c.OpCounts
		// tt is nil outside temporal mode; holding it in a local keeps the
		// per-instruction shadow-tag branch off a field load.
		tt = c.TT
		// pollCd counts down to the next context poll so the hot loop pays
		// one decrement instead of a modulo. It reproduces the schedule
		// "poll when instrs%PollInterval == 0" exactly.
		pollCd = c.Instrs % PollInterval
	)
	if pollCd != 0 {
		pollCd = PollInterval - pollCd
	}
	for len(stack) > 0 && !c.Exited {
		fr := &stack[len(stack)-1]
		fn := fr.Fn
		code := fn.Code
		meta := fr.Meta
		if meta == nil {
			meta = c.MetaOf(fn)
			fr.Meta = meta
		}
		pc := fr.PC
	frame:
		for {
			if pc >= len(code) {
				// fall off the end: return 0
				c.SP = fr.SavedSP
				c.SetReg(fr.RetReg, 0)
				if tt != nil {
					tt.SetTag(fr.RetReg, 0)
				}
				stack = stack[:len(stack)-1]
				break frame
			}
			in := &code[pc]
			if c.Instrs >= maxInstrs {
				fr.PC = pc
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
					c.Heap().Collect()
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
				c.SP = ns
			case machine.Ret:
				if in.Rs1 != machine.NoReg {
					c.PendingRet = c.Reg(in.Rs1)
				} else {
					c.PendingRet = 0
				}
				c.SP = fr.SavedSP
				c.SetReg(fr.RetReg, c.PendingRet)
				if tt != nil {
					tt.SetTag(fr.RetReg, tt.RetTag)
				}
				stack = stack[:len(stack)-1]
				break frame
			case machine.Call:
				if callee := meta.Callees[pc-1]; callee != nil {
					fr.PC = pc
					stack = append(stack, Frame{Fn: callee, PC: 0, SavedSP: c.SP,
						RetReg: in.Rd, Meta: meta.CalleeMeta[pc-1]})
					break frame
				}
				v, err := c.RuntimeCall(fn.Name, in)
				if err != nil {
					fr.PC = pc
					return &FaultError{Fn: fn.Name, PC: pc - 1, Err: err}
				}
				c.SetReg(in.Rd, v)
				if tt != nil {
					tt.SetTag(in.Rd, tt.RetTag)
				}
				if c.Exited {
					fr.PC = pc
					break frame
				}
			default:
				fr.PC = pc
				ret, push, err := c.Step(fr, in)
				if err != nil {
					return &FaultError{Fn: fn.Name, PC: pc - 1, Err: err}
				}
				if push != nil {
					stack = append(stack, *push)
					break frame
				}
				if ret {
					c.SP = fr.SavedSP
					c.SetReg(fr.RetReg, c.PendingRet)
					if tt != nil {
						tt.SetTag(fr.RetReg, tt.RetTag)
					}
					stack = stack[:len(stack)-1]
					break frame
				}
				if c.Exited {
					break frame
				}
				pc = fr.PC // step may have redirected control flow
			}
		}
	}
	return nil
}
