package codegen

import (
	"gcsafety/internal/machine"
)

// The optimizer works on virtual-register code. It deliberately includes
// the transformation the paper opens with: displacement reassociation,
// which rewrites `a = p + (i - C)` into `t = p + (-C); a = t + i`,
// creating an intermediate pointer that may fall outside every object. A
// KeepLive use of the base pointer extends its live range past the
// arithmetic, which is what makes the annotated program safe — "the
// problem is to convince the compiler to preserve some values longer than
// they appear to be needed, rather than to suppress specific
// optimizations".

// optimize runs the -O pipeline.
func optimize(code []machine.Instr, opts Options) []machine.Instr {
	code = constFold(code)
	code = copyProp(code)
	code = localCSE(code)
	code = copyProp(code)
	if !opts.DisableReassociation {
		code = reassociate(code)
	}
	code = constFold(code)
	if opts.Machine.LoadIndexed && !opts.DisableLoadFolding {
		code = foldLoadAddresses(code)
	}
	code = deadCodeElim(code)
	return code
}

// localCSE performs block-local common-subexpression elimination over pure
// ALU operations: a repeated computation with identical opcode and operands
// reuses the earlier result via a copy (cleaned up by copy propagation).
// KeepLive results are opaque and never participate; loads are not reused
// (stores and calls could invalidate them).
func localCSE(code []machine.Instr) []machine.Instr {
	type key struct {
		op       machine.Op
		rs1, rs2 machine.Reg
		hasImm   bool
		imm      int32
	}
	avail := map[key]machine.Reg{}
	invalidate := func(r machine.Reg) {
		for k, v := range avail {
			if v == r || k.rs1 == r || (!k.hasImm && k.rs2 == r) {
				delete(avail, k)
			}
		}
	}
	for i := range code {
		in := &code[i]
		if barrier(*in) {
			avail = map[key]machine.Reg{}
			continue
		}
		if in.Op.IsArith() && in.Rd != machine.NoReg {
			k := key{op: in.Op, rs1: in.Rs1, rs2: in.Rs2, hasImm: in.HasImm, imm: in.Imm}
			if prev, ok := avail[k]; ok && prev != in.Rd {
				rd := in.Rd
				*in = machine.RR(machine.Mov, rd, prev, machine.NoReg)
				invalidate(rd)
				continue
			}
			d := in.Rd
			invalidate(d)
			if d != in.Rs1 && (in.HasImm || d != in.Rs2) {
				avail[k] = d
			}
			continue
		}
		if d := defOf(*in); d != machine.NoReg {
			invalidate(d)
		}
	}
	return code
}

// defOf returns the register defined by an instruction, or NoReg.
func defOf(in machine.Instr) machine.Reg { return machine.Def(in) }

// usesOf appends the registers read by an instruction to buf.
func usesOf(in machine.Instr, buf []machine.Reg) []machine.Reg {
	return machine.Uses(in, buf)
}

// regCounts is the number of definitions and uses of every register in one
// code sequence, the census reassociate, foldLoadAddresses and
// coalesceKeepLive decide on. Registers are numbered densely, physical
// ones from 0 and virtual ones from VRegBase, so one slice holds both
// ranges back to back: the physical registers first, then the virtual.
type regCounts struct {
	nPhys      int // physical registers seen: 0 .. nPhys-1
	defs, uses []int32
}

// regRange returns how many physical and virtual registers code names:
// registers 0 .. nPhys-1 and VRegBase .. VRegBase+nVirt-1.
func regRange(code []machine.Instr) (nPhys, nVirt int) {
	for _, in := range code {
		for _, r := range [...]machine.Reg{in.Rd, in.Rs1, in.Rs2} {
			switch {
			case r.IsVirtual():
				nVirt = max(nVirt, int(r-machine.VRegBase)+1)
			case r >= 0:
				nPhys = max(nPhys, int(r)+1)
			}
		}
	}
	return nPhys, nVirt
}

// countRegs takes the census of code.
func countRegs(code []machine.Instr) regCounts {
	nPhys, nVirt := regRange(code)
	n := nPhys + nVirt
	counts := make([]int32, 2*n)
	c := regCounts{nPhys: nPhys, defs: counts[:n:n], uses: counts[n:]}
	var buf []machine.Reg
	for _, in := range code {
		if i := c.index(defOf(in)); i >= 0 {
			c.defs[i]++
		}
		buf = usesOf(in, buf[:0])
		for _, u := range buf {
			c.uses[c.index(u)]++
		}
	}
	return c
}

// index is r's slot in the counters, or -1 for NoReg and for registers
// code never names.
func (c *regCounts) index(r machine.Reg) int {
	switch {
	case r.IsVirtual():
		if i := c.nPhys + int(r-machine.VRegBase); i < len(c.defs) {
			return i
		}
	case r >= 0 && int(r) < c.nPhys:
		return int(r)
	}
	return -1
}

// Defs is the number of instructions defining r.
func (c *regCounts) Defs(r machine.Reg) int {
	if i := c.index(r); i >= 0 {
		return int(c.defs[i])
	}
	return 0
}

// Uses is the number of operand reads of r.
func (c *regCounts) Uses(r machine.Reg) int {
	if i := c.index(r); i >= 0 {
		return int(c.uses[i])
	}
	return 0
}

// barrier reports whether an instruction ends a straight-line window for
// local value tracking.
func barrier(in machine.Instr) bool { return in.Op.IsBarrier() }

// constFold tracks constants block-locally, folds operands into
// immediates, evaluates fully constant operations and strength-reduces
// multiplications by powers of two.
func constFold(code []machine.Instr) []machine.Instr {
	consts := map[machine.Reg]int32{}
	out := code[:0]
	for _, in := range code {
		if barrier(in) {
			consts = map[machine.Reg]int32{}
			out = append(out, in)
			continue
		}
		// substitute a known-constant Rs2
		if in.Op.IsArith() && !in.HasImm && in.Rs2 != machine.NoReg {
			if v, ok := consts[in.Rs2]; ok {
				in.HasImm = true
				in.Imm = v
				in.Rs2 = machine.NoReg
			}
		}
		// commutative swap to expose Rs1 constants
		if in.Op.IsArith() && !in.HasImm {
			if v, ok := consts[in.Rs1]; ok && commutative(in.Op) {
				in.Rs1 = in.Rs2
				in.Rs2 = machine.NoReg
				in.HasImm = true
				in.Imm = v
			}
		}
		// full evaluation
		if in.Op.IsArith() && in.HasImm {
			if v, ok := consts[in.Rs1]; ok {
				if r, ok2 := evalOp(in.Op, v, in.Imm); ok2 {
					in = machine.RI(machine.Mov, in.Rd, machine.NoReg, r)
				}
			}
		}
		// strength reduction: Mul by power of two
		if in.Op == machine.Mul && in.HasImm && in.Imm > 0 && in.Imm&(in.Imm-1) == 0 {
			sh := int32(0)
			for v := in.Imm; v > 1; v >>= 1 {
				sh++
			}
			if sh > 0 {
				in = machine.RI(machine.Shl, in.Rd, in.Rs1, sh)
			} else {
				in = machine.RR(machine.Mov, in.Rd, in.Rs1, machine.NoReg)
			}
		}
		// Add/Sub of 0 becomes a copy
		if (in.Op == machine.Add || in.Op == machine.Sub) && in.HasImm && in.Imm == 0 {
			in = machine.RR(machine.Mov, in.Rd, in.Rs1, machine.NoReg)
		}
		if d := defOf(in); d != machine.NoReg {
			delete(consts, d)
			if in.Op == machine.Mov && in.HasImm {
				consts[in.Rd] = in.Imm
			}
		}
		out = append(out, in)
	}
	return out
}

func commutative(op machine.Op) bool {
	switch op {
	case machine.Add, machine.Mul, machine.And, machine.Or, machine.Xor,
		machine.CmpEq, machine.CmpNe:
		return true
	}
	return false
}

func evalOp(op machine.Op, a, b int32) (int32, bool) {
	ua, ub := uint32(a), uint32(b)
	switch op {
	case machine.Add:
		return int32(ua + ub), true
	case machine.Sub:
		return int32(ua - ub), true
	case machine.Mul:
		return int32(ua * ub), true
	case machine.And:
		return a & b, true
	case machine.Or:
		return a | b, true
	case machine.Xor:
		return a ^ b, true
	case machine.Shl:
		return int32(ua << (ub & 31)), true
	case machine.Shr:
		return a >> (ub & 31), true
	case machine.Shru:
		return int32(ua >> (ub & 31)), true
	case machine.CmpEq:
		return b2i(a == b), true
	case machine.CmpNe:
		return b2i(a != b), true
	case machine.CmpLt:
		return b2i(a < b), true
	case machine.CmpLe:
		return b2i(a <= b), true
	case machine.CmpGt:
		return b2i(a > b), true
	case machine.CmpGe:
		return b2i(a >= b), true
	case machine.CmpLtu:
		return b2i(ua < ub), true
	case machine.CmpLeu:
		return b2i(ua <= ub), true
	case machine.CmpGtu:
		return b2i(ua > ub), true
	case machine.CmpGeu:
		return b2i(ua >= ub), true
	}
	return 0, false
}

func b2i(b bool) int32 {
	if b {
		return 1
	}
	return 0
}

// copyProp propagates register copies block-locally: after `Mov vd, vs`,
// uses of vd become uses of vs until either is redefined. KeepLive results
// are never propagated through — the value is opaque.
func copyProp(code []machine.Instr) []machine.Instr {
	alias := map[machine.Reg]machine.Reg{}
	invalidate := func(r machine.Reg) {
		delete(alias, r)
		for d, s := range alias {
			if s == r {
				delete(alias, d)
			}
		}
	}
	resolve := func(r machine.Reg) machine.Reg {
		for {
			s, ok := alias[r]
			if !ok {
				return r
			}
			r = s
		}
	}
	for i := range code {
		in := &code[i]
		if barrier(*in) {
			alias = map[machine.Reg]machine.Reg{}
			continue
		}
		// rewrite uses
		switch {
		case in.Op.IsArith() || in.Op.IsLoad():
			in.Rs1 = resolve(in.Rs1)
			if !in.HasImm && in.Rs2 != machine.NoReg {
				in.Rs2 = resolve(in.Rs2)
			}
		case in.Op == machine.Mov && !in.HasImm:
			in.Rs1 = resolve(in.Rs1)
		case in.Op.IsStore():
			in.Rd = resolve(in.Rd)
			in.Rs1 = resolve(in.Rs1)
			if !in.HasImm && in.Rs2 != machine.NoReg {
				in.Rs2 = resolve(in.Rs2)
			}
		case in.Op == machine.StSP || in.Op == machine.Arg:
			in.Rd = resolve(in.Rd)
		case in.Op == machine.CallR:
			in.Rs1 = resolve(in.Rs1)
		case in.Op == machine.KeepLive:
			in.Rs1 = resolve(in.Rs1)
			if in.Rs2 != machine.NoReg {
				in.Rs2 = resolve(in.Rs2)
			}
		}
		if d := defOf(*in); d != machine.NoReg {
			invalidate(d)
			if in.Op == machine.Mov && !in.HasImm && in.Rs1 != d {
				alias[d] = in.Rs1
			}
		}
	}
	return code
}

// reassociate performs displacement folding: the canonical GC-unsafe
// transformation. For `t = i ± C; a = p + t` (t defined and used exactly
// once, within one block, operands untouched in between), it produces
// `t = p ± C; a = t + i`. The constant moves onto the pointer, and the
// intermediate t may point outside every heap object.
func reassociate(code []machine.Instr) []machine.Instr {
	counts := countRegs(code)
	var buf []machine.Reg
	for i := 0; i < len(code); i++ {
		t := code[i]
		// match t.Rd = t.Rs1 ± C
		if !(t.Op == machine.Add || t.Op == machine.Sub) || !t.HasImm || t.Imm == 0 {
			continue
		}
		if counts.Defs(t.Rd) != 1 || counts.Uses(t.Rd) != 1 {
			continue
		}
		// find the single use within the block
		defined := map[machine.Reg]bool{}
		for j := i + 1; j < len(code); j++ {
			u := code[j]
			if barrier(u) {
				break
			}
			d := defOf(u)
			if d == t.Rs1 {
				break // index operand redefined before use
			}
			if u.Op == machine.Add && !u.HasImm && (u.Rs2 == t.Rd || u.Rs1 == t.Rd) {
				p := u.Rs1
				if u.Rs2 != t.Rd {
					p = u.Rs2
				}
				if defined[p] {
					// the base operand is not yet available at position i;
					// hoisting the constant onto it would read an undefined
					// register
					break
				}
				// When this is the base operand's final use, reuse its own
				// register for the intermediate — the exact transformation
				// the paper opens with: "a conventional C compiler may
				// replace a final reference p[i-1000] ... by the sequence
				// p = p - 1000; ... p[i] ...". The original value of p is
				// overwritten before the address computation is complete;
				// without a KEEP_LIVE use keeping p alive past this point,
				// the resulting code is not GC-safe.
				if lastUseAt(code, j, p) {
					code[i] = machine.RI(t.Op, p, p, t.Imm)
					code[j] = machine.RR(machine.Add, u.Rd, p, t.Rs1)
					break
				}
				// rewrite: t = p ± C ; a = t + i
				code[i] = machine.RI(t.Op, t.Rd, p, t.Imm)
				code[j] = machine.RR(machine.Add, u.Rd, t.Rd, t.Rs1)
				break
			}
			if d == t.Rd {
				break
			}
			if d != machine.NoReg {
				defined[d] = true
			}
			// another use of t.Rd in a non-matching instruction: stop
			stop := false
			buf = usesOf(u, buf[:0])
			for _, r := range buf {
				if r == t.Rd {
					stop = true
				}
			}
			if stop {
				break
			}
		}
	}
	return code
}

// lastUseAt reports whether position j holds the textually final use of r
// and control flow cannot revisit j (no backward branches exist after j),
// so r's register may be recycled for the intermediate value.
func lastUseAt(code []machine.Instr, j int, r machine.Reg) bool {
	labelPos := map[int32]int{}
	for i, in := range code {
		if in.Op == machine.Label {
			labelPos[in.Imm] = i
		}
	}
	var buf []machine.Reg
	for i := j + 1; i < len(code); i++ {
		in := code[i]
		buf = usesOf(in, buf[:0])
		for _, u := range buf {
			if u == r {
				return false
			}
		}
		switch in.Op {
		case machine.Jmp, machine.Bz, machine.Bnz:
			if lp, ok := labelPos[in.Imm]; ok && lp <= j {
				return false // a backward branch could re-execute j
			}
		}
	}
	// the use at j itself must not sit between a backward branch target and
	// its branch: check branches before j too
	for i := 0; i <= j; i++ {
		in := code[i]
		switch in.Op {
		case machine.Jmp, machine.Bz, machine.Bnz:
			if lp, ok := labelPos[in.Imm]; ok && lp <= j && i > lp {
				// loop enclosing positions [lp, i]; j inside it means the
				// value may be needed again
				if j >= lp && j <= i {
					return false
				}
			}
		}
	}
	return true
}

// foldLoadAddresses folds single-use address adds into load/store
// addressing ("indexed loads ... a free addition in the load
// instruction"). A KeepLive between the add and the memory operation
// blocks the fold naturally: the memory operation's address register is
// then defined by the KeepLive, not the add.
func foldLoadAddresses(code []machine.Instr) []machine.Instr {
	counts := countRegs(code)
	var buf []machine.Reg
	removed := map[int]bool{}
	for i := 0; i < len(code); i++ {
		a := code[i]
		if a.Op != machine.Add || counts.Defs(a.Rd) != 1 || counts.Uses(a.Rd) != 1 {
			continue
		}
		for j := i + 1; j < len(code); j++ {
			u := code[j]
			if barrier(u) || u.Op == machine.Call || u.Op == machine.CallR {
				break
			}
			d := defOf(u)
			if d == a.Rs1 || (!a.HasImm && d == a.Rs2) {
				break
			}
			usesA := false
			buf = usesOf(u, buf[:0])
			for _, r := range buf {
				if r == a.Rd {
					usesA = true
				}
			}
			if usesA {
				isMem := u.Op.IsLoad() || u.Op.IsStore()
				if isMem && u.Rs1 == a.Rd && u.HasImm && u.Imm == 0 && u.Rd != a.Rd {
					// fold: [a.Rs1 + a.Rs2] or [a.Rs1 + imm]
					code[j].Rs1 = a.Rs1
					if a.HasImm {
						code[j].Imm = a.Imm
					} else {
						code[j].HasImm = false
						code[j].Rs2 = a.Rs2
					}
					removed[i] = true
				}
				break
			}
			if d == a.Rd {
				break
			}
		}
	}
	if len(removed) == 0 {
		return code
	}
	out := code[:0]
	for i, in := range code {
		if !removed[i] {
			out = append(out, in)
		}
	}
	return out
}

// deadCodeElim removes side-effect-free definitions that are never used.
// KeepLive survives unconditionally: it is the whole point.
func deadCodeElim(code []machine.Instr) []machine.Instr {
	for {
		used := map[machine.Reg]bool{}
		var buf []machine.Reg
		for _, in := range code {
			buf = usesOf(in, buf[:0])
			for _, u := range buf {
				used[u] = true
			}
		}
		changed := false
		out := code[:0]
		for _, in := range code {
			removable := false
			switch {
			case in.Op == machine.KeepLive:
				removable = false
			case in.Op.IsArith() || in.Op == machine.Mov || in.Op.IsLoad() ||
				in.Op == machine.LeaSP || in.Op == machine.LdSP:
				removable = in.Rd != machine.NoReg && !used[in.Rd]
			}
			if removable {
				changed = true
				continue
			}
			out = append(out, in)
		}
		code = out
		if !changed {
			return code
		}
	}
}
