package interp

import (
	"fmt"

	"gcsafety/internal/machine"
)

// Reg reads a register (NoReg and out-of-range read as 0).
func (c *Machine) Reg(r machine.Reg) uint32 {
	if r == machine.NoReg || int(r) >= len(c.Regs) {
		return 0
	}
	return c.Regs[r]
}

// SetReg writes a register (NoReg and out-of-range writes are dropped).
func (c *Machine) SetReg(r machine.Reg, v uint32) {
	if r == machine.NoReg || int(r) >= len(c.Regs) {
		return
	}
	c.Regs[r] = v
}

// Src2 resolves the second operand (register or immediate).
func (c *Machine) Src2(in *machine.Instr) uint32 {
	if in.HasImm {
		return uint32(in.Imm)
	}
	return c.Reg(in.Rs2)
}

// Src2First resolves Mov's operand (immediate, else the FIRST source
// register — Mov's source is Rs1, not Rs2).
func (c *Machine) Src2First(in *machine.Instr) uint32 {
	if in.HasImm {
		return uint32(in.Imm)
	}
	return c.Reg(in.Rs1)
}

// Step executes one cold-path instruction (anything the dispatch loop
// does not dispatch inline). It returns ret=true when the current frame
// finished, or a new frame to push for calls. The concurrent scheduler
// dispatches every opcode through it.
func (c *Machine) Step(fr *Frame, in *machine.Instr) (ret bool, push *Frame, err error) {
	switch in.Op {
	case machine.Nop, machine.Label:
	case machine.KeepLive:
		// The empty asm: value flows through unchanged; the base operand is
		// merely kept live by its presence here.
		c.SetReg(in.Rd, c.Reg(in.Rs1))
	case machine.Mov:
		c.SetReg(in.Rd, c.Src2First(in))
	case machine.Add:
		c.SetReg(in.Rd, c.Reg(in.Rs1)+c.Src2(in))
	case machine.Sub:
		c.SetReg(in.Rd, c.Reg(in.Rs1)-c.Src2(in))
	case machine.Mul:
		c.SetReg(in.Rd, c.Reg(in.Rs1)*c.Src2(in))
	case machine.Div:
		d := int32(c.Src2(in))
		if d == 0 {
			return false, nil, fmt.Errorf("division by zero")
		}
		c.SetReg(in.Rd, uint32(int32(c.Reg(in.Rs1))/d))
	case machine.Divu:
		d := c.Src2(in)
		if d == 0 {
			return false, nil, fmt.Errorf("division by zero")
		}
		c.SetReg(in.Rd, c.Reg(in.Rs1)/d)
	case machine.Rem:
		d := int32(c.Src2(in))
		if d == 0 {
			return false, nil, fmt.Errorf("division by zero")
		}
		c.SetReg(in.Rd, uint32(int32(c.Reg(in.Rs1))%d))
	case machine.Remu:
		d := c.Src2(in)
		if d == 0 {
			return false, nil, fmt.Errorf("division by zero")
		}
		c.SetReg(in.Rd, c.Reg(in.Rs1)%d)
	case machine.And:
		c.SetReg(in.Rd, c.Reg(in.Rs1)&c.Src2(in))
	case machine.Or:
		c.SetReg(in.Rd, c.Reg(in.Rs1)|c.Src2(in))
	case machine.Xor:
		c.SetReg(in.Rd, c.Reg(in.Rs1)^c.Src2(in))
	case machine.Shl:
		c.SetReg(in.Rd, c.Reg(in.Rs1)<<(c.Src2(in)&31))
	case machine.Shr:
		c.SetReg(in.Rd, uint32(int32(c.Reg(in.Rs1))>>(c.Src2(in)&31)))
	case machine.Shru:
		c.SetReg(in.Rd, c.Reg(in.Rs1)>>(c.Src2(in)&31))
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
	case machine.Ld:
		v, e := c.Read32(c.Reg(in.Rs1) + c.Src2(in))
		if e != nil {
			return false, nil, e
		}
		c.SetReg(in.Rd, v)
	case machine.LdB:
		b, e := c.read8(c.Reg(in.Rs1) + c.Src2(in))
		if e != nil {
			return false, nil, e
		}
		c.SetReg(in.Rd, uint32(int32(int8(b))))
	case machine.LdBu:
		b, e := c.read8(c.Reg(in.Rs1) + c.Src2(in))
		if e != nil {
			return false, nil, e
		}
		c.SetReg(in.Rd, uint32(b))
	case machine.LdH:
		h, e := c.read16(c.Reg(in.Rs1) + c.Src2(in))
		if e != nil {
			return false, nil, e
		}
		c.SetReg(in.Rd, uint32(int32(int16(h))))
	case machine.LdHu:
		h, e := c.read16(c.Reg(in.Rs1) + c.Src2(in))
		if e != nil {
			return false, nil, e
		}
		c.SetReg(in.Rd, uint32(h))
	case machine.St:
		if e := c.Write32(c.Reg(in.Rs1)+c.Src2(in), c.Reg(in.Rd)); e != nil {
			return false, nil, e
		}
	case machine.StB:
		if e := c.write8(c.Reg(in.Rs1)+c.Src2(in), byte(c.Reg(in.Rd))); e != nil {
			return false, nil, e
		}
	case machine.StH:
		if e := c.write16(c.Reg(in.Rs1)+c.Src2(in), uint16(c.Reg(in.Rd))); e != nil {
			return false, nil, e
		}
	case machine.Jmp:
		fr.PC = c.labels[fr.Fn.Name][in.Imm]
	case machine.Bz:
		if c.Reg(in.Rs1) == 0 {
			fr.PC = c.labels[fr.Fn.Name][in.Imm]
		}
	case machine.Bnz:
		if c.Reg(in.Rs1) != 0 {
			fr.PC = c.labels[fr.Fn.Name][in.Imm]
		}
	case machine.AdjSP:
		ns := c.SP + uint32(in.Imm)
		if ns < c.StackLo || ns > c.StackHi {
			return false, nil, fmt.Errorf("stack overflow (sp=%#x)", ns)
		}
		c.SP = ns
	case machine.LeaSP:
		c.SetReg(in.Rd, c.SP+uint32(in.Imm))
	case machine.LdSP:
		v, e := c.Read32(c.SP + uint32(in.Imm))
		if e != nil {
			return false, nil, e
		}
		c.SetReg(in.Rd, v)
	case machine.StSP, machine.Arg:
		if e := c.Write32(c.SP+uint32(in.Imm), c.Reg(in.Rd)); e != nil {
			return false, nil, e
		}
	case machine.Call:
		return c.doCall(fr.Fn.Name, in)
	case machine.CallR:
		id := int32(c.Reg(in.Rs1))
		f, ok := c.byID[id]
		if !ok {
			return false, nil, fmt.Errorf("indirect call to invalid function id %d", id)
		}
		return false, &Frame{Fn: f, PC: 0, SavedSP: c.SP, RetReg: in.Rd}, nil
	case machine.Ret:
		if in.Rs1 != machine.NoReg {
			c.PendingRet = c.Reg(in.Rs1)
		} else {
			c.PendingRet = 0
		}
		return true, nil, nil
	default:
		return false, nil, fmt.Errorf("unimplemented opcode %v", in.Op)
	}
	return false, nil, nil
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// doCall dispatches a direct call: user function or runtime builtin.
func (c *Machine) doCall(fnName string, in *machine.Instr) (bool, *Frame, error) {
	rd := in.Rd
	if f, ok := c.prog.Funcs[in.Sym]; ok {
		return false, &Frame{Fn: f, PC: 0, SavedSP: c.SP, RetReg: rd}, nil
	}
	v, err := c.RuntimeCall(fnName, in)
	if err != nil {
		return false, nil, err
	}
	c.SetReg(rd, v)
	if c.TT != nil {
		c.TT.SetTag(rd, c.TT.RetTag)
	}
	return false, nil, nil
}
