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

// step executes one cold-path instruction: an opcode the dispatch loop
// does not dispatch inline. None of them touches control flow or the
// frame stack.
func (c *Machine) step(in *machine.Instr) error {
	switch in.Op {
	case machine.Mul:
		c.SetReg(in.Rd, c.Reg(in.Rs1)*c.Src2(in))
	case machine.Div:
		d := int32(c.Src2(in))
		if d == 0 {
			return fmt.Errorf("division by zero")
		}
		c.SetReg(in.Rd, uint32(int32(c.Reg(in.Rs1))/d))
	case machine.Divu:
		d := c.Src2(in)
		if d == 0 {
			return fmt.Errorf("division by zero")
		}
		c.SetReg(in.Rd, c.Reg(in.Rs1)/d)
	case machine.Rem:
		d := int32(c.Src2(in))
		if d == 0 {
			return fmt.Errorf("division by zero")
		}
		c.SetReg(in.Rd, uint32(int32(c.Reg(in.Rs1))%d))
	case machine.Remu:
		d := c.Src2(in)
		if d == 0 {
			return fmt.Errorf("division by zero")
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
	case machine.LdB:
		b, e := c.read8(c.Reg(in.Rs1) + c.Src2(in))
		if e != nil {
			return e
		}
		c.SetReg(in.Rd, uint32(int32(int8(b))))
	case machine.LdBu:
		b, e := c.read8(c.Reg(in.Rs1) + c.Src2(in))
		if e != nil {
			return e
		}
		c.SetReg(in.Rd, uint32(b))
	case machine.LdH:
		h, e := c.read16(c.Reg(in.Rs1) + c.Src2(in))
		if e != nil {
			return e
		}
		c.SetReg(in.Rd, uint32(int32(int16(h))))
	case machine.LdHu:
		h, e := c.read16(c.Reg(in.Rs1) + c.Src2(in))
		if e != nil {
			return e
		}
		c.SetReg(in.Rd, uint32(h))
	case machine.StB:
		return c.write8(c.Reg(in.Rs1)+c.Src2(in), byte(c.Reg(in.Rd)))
	case machine.StH:
		return c.write16(c.Reg(in.Rs1)+c.Src2(in), uint16(c.Reg(in.Rd)))
	default:
		return fmt.Errorf("unimplemented opcode %v", in.Op)
	}
	return nil
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}
