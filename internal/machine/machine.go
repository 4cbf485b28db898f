// Package machine defines the RISC-style target of the compiler: the
// instruction set, register model, machine configurations standing in for
// the paper's three measurement platforms (SPARCstation 2, SPARCstation 10,
// Pentium 90), and an assembly printer.
//
// GC-unsafety is a property of liveness and address-arithmetic decisions,
// not of real silicon, so a small simulated ISA reproduces everything the
// paper measures: register pressure, load-address folding (the SPARC "free
// addition in the load instruction"), two-operand instruction penalties,
// and the empty KEEPLIVE pseudo-instruction whose operand constraints pin
// values exactly the way the paper's gcc inline-asm expansion does.
package machine

import "fmt"

// Reg identifies a register. Values 0..NumRegs-1 are general-purpose
// allocatable registers; the assembler-level special registers follow.
// During compilation, values >= VRegBase are virtual registers awaiting
// allocation.
type Reg int32

// NoReg marks an unused register operand.
const NoReg Reg = -1

// VRegBase is the first virtual register number used by the compiler.
const VRegBase Reg = 1000

// IsVirtual reports whether r is an unallocated virtual register.
func (r Reg) IsVirtual() bool { return r >= VRegBase }

// Op is an instruction opcode.
type Op int

// Opcodes.
const (
	Nop Op = iota
	// Arithmetic and logic: Rd = Rs1 op (Rs2 | Imm).
	Add
	Sub
	Mul
	Div  // signed
	Divu // unsigned
	Rem  // signed remainder
	Remu
	And
	Or
	Xor
	Shl
	Shr  // arithmetic (signed) right shift
	Shru // logical right shift
	// Comparison: Rd = (Rs1 op Rs2|Imm) ? 1 : 0.
	CmpEq
	CmpNe
	CmpLt
	CmpLe
	CmpGt
	CmpGe
	CmpLtu
	CmpLeu
	CmpGtu
	CmpGeu
	// Data movement: Mov Rd, Rs1|Imm.
	Mov
	// Loads: Rd = mem[Rs1 + (Rs2|Imm)]. The width/sign variants mirror
	// SPARC's ldsb/ldub/ldsh/lduh/ld.
	Ld
	LdB  // signed byte
	LdBu // unsigned byte
	LdH  // signed halfword
	LdHu
	// Stores: mem[Rs1 + (Rs2|Imm)] = Rd.
	St
	StB
	StH
	// Control flow.
	Label // pseudo: Imm is the label id
	Jmp   // Imm is the label id
	Bz    // branch to Imm if Rs1 == 0
	Bnz   // branch to Imm if Rs1 != 0
	Call  // Sym names the callee; arguments are on the stack
	CallR // indirect call through Rs1 (function id)
	Ret
	// Stack adjustment: sp += Imm.
	AdjSP
	// Frame access: Rd = sp + Imm (address of a stack slot).
	LeaSP
	// LdSP/StSP: Rd = mem[sp+Imm] / mem[sp+Imm] = Rd.
	LdSP
	StSP
	// KeepLive is the paper's empty asm instruction: it defines Rd as an
	// opaque copy of Rs1 ("the first argument be assigned the same
	// location as the result") and carries an artificial use of Rs2 (the
	// base pointer, "an unused second argument which may be stored
	// anywhere"). It costs zero cycles but constrains the optimizer,
	// register allocator and peephole passes.
	KeepLive
	// Arg marks an outgoing argument store: mem[sp+Imm] = Rd, where sp has
	// already been adjusted for the outgoing call. Distinct from StSP only
	// for readability of listings.
	Arg
	numOps
)

// NumOps is the number of defined opcodes. Interpreters index
// per-opcode tables (e.g. precomputed cycle costs) with it.
const NumOps = int(numOps)

var opNames = [numOps]string{
	Nop: "nop", Add: "add", Sub: "sub", Mul: "mul", Div: "div", Divu: "divu",
	Rem: "rem", Remu: "remu", And: "and", Or: "or", Xor: "xor",
	Shl: "shl", Shr: "shr", Shru: "shru",
	CmpEq: "cmpeq", CmpNe: "cmpne", CmpLt: "cmplt", CmpLe: "cmple",
	CmpGt: "cmpgt", CmpGe: "cmpge", CmpLtu: "cmpltu", CmpLeu: "cmpleu",
	CmpGtu: "cmpgtu", CmpGeu: "cmpgeu",
	Mov: "mov", Ld: "ld", LdB: "ldsb", LdBu: "ldub", LdH: "ldsh", LdHu: "lduh",
	St: "st", StB: "stb", StH: "sth",
	Label: "label", Jmp: "jmp", Bz: "bz", Bnz: "bnz",
	Call: "call", CallR: "callr", Ret: "ret",
	AdjSP: "adjsp", LeaSP: "leasp", LdSP: "ldsp", StSP: "stsp",
	KeepLive: "keeplive", Arg: "arg",
}

func (o Op) String() string { return opNames[o] }

// IsLoad reports whether o reads memory into Rd.
func (o Op) IsLoad() bool { return o == Ld || o == LdB || o == LdBu || o == LdH || o == LdHu }

// IsStore reports whether o writes Rd to memory.
func (o Op) IsStore() bool { return o == St || o == StB || o == StH }

// IsCmp reports whether o is a comparison producing 0/1.
func (o Op) IsCmp() bool { return o >= CmpEq && o <= CmpGeu }

// IsArith reports whether o is a register-to-register ALU operation.
func (o Op) IsArith() bool { return o >= Add && o <= CmpGeu }

// Instr is one instruction. Operand usage depends on Op; unused register
// fields hold NoReg. When HasImm is set, Imm replaces Rs2.
type Instr struct {
	Op     Op
	Rd     Reg
	Rs1    Reg
	Rs2    Reg
	HasImm bool
	Imm    int32
	// Line is the 1-based source line the instruction was generated from;
	// 0 means unknown. Currently stamped only on direct Call instructions,
	// where it gives heap snapshots their allocation-site provenance
	// (which malloc call produced an object). It does not participate in
	// listings or in the cost model. It sits in the padding after Imm so
	// Instr stays exactly 64 bytes — one cache line — which the dispatch
	// loop's throughput depends on (TestInstrSize).
	Line int32
	Sym  string // callee for Call
	// Comment annotates listings (the paper's peephole pass communicates
	// KEEP_LIVE placement via "a special comment understood by the
	// peephole optimizer"; here the KeepLive opcode itself carries it).
	Comment string
}

// RI builds a register-immediate instruction.
func RI(op Op, rd, rs1 Reg, imm int32) Instr {
	return Instr{Op: op, Rd: rd, Rs1: rs1, Rs2: NoReg, HasImm: true, Imm: imm}
}

// RR builds a register-register instruction.
func RR(op Op, rd, rs1, rs2 Reg) Instr {
	return Instr{Op: op, Rd: rd, Rs1: rs1, Rs2: rs2}
}

func (i Instr) String() string {
	reg := func(r Reg) string {
		switch {
		case r == NoReg:
			return "-"
		case r.IsVirtual():
			return fmt.Sprintf("v%d", r-VRegBase)
		default:
			return fmt.Sprintf("%%r%d", r)
		}
	}
	src2 := func() string {
		if i.HasImm {
			return fmt.Sprintf("%d", i.Imm)
		}
		return reg(i.Rs2)
	}
	var s string
	switch {
	case i.Op == Label:
		return fmt.Sprintf(".L%d:", i.Imm)
	case i.Op == Jmp:
		s = fmt.Sprintf("jmp .L%d", i.Imm)
	case i.Op == Bz || i.Op == Bnz:
		s = fmt.Sprintf("%s %s, .L%d", i.Op, reg(i.Rs1), i.Imm)
	case i.Op == Call:
		s = fmt.Sprintf("call %s", i.Sym)
	case i.Op == CallR:
		s = fmt.Sprintf("callr %s", reg(i.Rs1))
	case i.Op == Ret:
		s = "ret"
	case i.Op == AdjSP:
		s = fmt.Sprintf("adjsp %d", i.Imm)
	case i.Op == LeaSP:
		s = fmt.Sprintf("leasp %s, [sp%+d]", reg(i.Rd), i.Imm)
	case i.Op == LdSP:
		s = fmt.Sprintf("ldsp %s, [sp%+d]", reg(i.Rd), i.Imm)
	case i.Op == StSP || i.Op == Arg:
		s = fmt.Sprintf("%s %s, [sp%+d]", i.Op, reg(i.Rd), i.Imm)
	case i.Op.IsLoad():
		s = fmt.Sprintf("%s %s, [%s+%s]", i.Op, reg(i.Rd), reg(i.Rs1), src2())
	case i.Op.IsStore():
		s = fmt.Sprintf("%s %s, [%s+%s]", i.Op, reg(i.Rd), reg(i.Rs1), src2())
	case i.Op == Mov:
		s = fmt.Sprintf("mov %s, %s", reg(i.Rd), src2first(i, reg))
	case i.Op == KeepLive:
		s = fmt.Sprintf("keeplive %s, %s ! base %s", reg(i.Rd), reg(i.Rs1), reg(i.Rs2))
	case i.Op == Nop:
		s = "nop"
	default:
		s = fmt.Sprintf("%s %s, %s, %s", i.Op, reg(i.Rd), reg(i.Rs1), src2())
	}
	if i.Comment != "" {
		s += " ! " + i.Comment
	}
	return "\t" + s
}

func src2first(i Instr, reg func(Reg) string) string {
	if i.HasImm {
		return fmt.Sprintf("%d", i.Imm)
	}
	return reg(i.Rs1)
}

// Func is one compiled function.
type Func struct {
	Name      string
	Code      []Instr
	FrameSize int32 // bytes of locals + spills (excluding outgoing args)
	NumParams int
	ID        int32 // function "address" for indirect calls
}

// Program is a compiled translation unit plus its static data image.
type Program struct {
	Funcs   map[string]*Func
	Order   []string          // definition order, for listings
	Data    []byte            // static segment image, based at DataBase
	Globals map[string]uint32 // symbol -> absolute address
	size    int               // Size, once Seal has recorded it
}

// Clone returns a copy of the program whose functions and code slices are
// independent of p: in-place rewrites (the peephole postprocessor) can run
// on the copy while p stays frozen — the contract cached compile artifacts
// rely on. The static data image and symbol table are immutable after
// compilation and are shared, not copied.
func (p *Program) Clone() *Program {
	q := &Program{
		Funcs:   make(map[string]*Func, len(p.Funcs)),
		Order:   append([]string(nil), p.Order...),
		Data:    p.Data,
		Globals: p.Globals,
	}
	for name, f := range p.Funcs {
		nf := *f
		nf.Code = append([]Instr(nil), f.Code...)
		q.Funcs[name] = &nf
	}
	return q
}

// DataBase is the absolute address of the static data segment.
const DataBase uint32 = 0x0000_2000

// StackTop is the initial stack pointer; the stack grows down.
const StackTop uint32 = 0x4000_0000

// StackLimit is the lowest valid stack address.
const StackLimit uint32 = StackTop - (1 << 20)

// Listing renders the whole program as assembly text.
func (p *Program) Listing() string {
	s := ""
	for _, name := range p.Order {
		f := p.Funcs[name]
		s += f.Name + ":\n"
		for _, in := range f.Code {
			s += in.String() + "\n"
		}
	}
	return s
}

// Size returns the static instruction count of the program, excluding
// labels and zero-size pseudo-instructions — the paper's object-code size
// measure ("these numbers include only the code that was actually
// processed, not the standard libraries").
func (p *Program) Size() int {
	if p.size > 0 {
		return p.size
	}
	n := 0
	for _, name := range p.Order {
		for _, in := range p.Funcs[name].Code {
			if in.Op == Label || in.Op == Nop || in.Op == KeepLive {
				// KeepLive assembles to an empty sequence: no object bytes.
				continue
			}
			n++
		}
	}
	return n
}

// Seal records Size for a program that will not change again, such as a
// cached one, so that Size costs nothing from then on.
func (p *Program) Seal() { p.size = p.Size() }

// FuncSize returns the instruction count of one function.
func (f *Func) Size() int {
	n := 0
	for _, in := range f.Code {
		if in.Op == Label || in.Op == Nop || in.Op == KeepLive {
			continue
		}
		n++
	}
	return n
}

// Def returns the register defined by an instruction, or NoReg.
func Def(in Instr) Reg {
	switch {
	case in.Op.IsArith(), in.Op == Mov, in.Op.IsLoad(),
		in.Op == LeaSP, in.Op == LdSP, in.Op == KeepLive:
		return in.Rd
	case in.Op == Call, in.Op == CallR:
		return in.Rd
	}
	return NoReg
}

// Uses appends the registers read by an instruction to buf and returns it.
func Uses(in Instr, buf []Reg) []Reg {
	add := func(r Reg) {
		if r != NoReg {
			buf = append(buf, r)
		}
	}
	switch {
	case in.Op.IsArith():
		add(in.Rs1)
		if !in.HasImm {
			add(in.Rs2)
		}
	case in.Op == Mov:
		if !in.HasImm {
			add(in.Rs1)
		}
	case in.Op.IsLoad():
		add(in.Rs1)
		if !in.HasImm {
			add(in.Rs2)
		}
	case in.Op.IsStore():
		add(in.Rd) // the stored value
		add(in.Rs1)
		if !in.HasImm {
			add(in.Rs2)
		}
	case in.Op == StSP, in.Op == Arg:
		add(in.Rd)
	case in.Op == Bz, in.Op == Bnz, in.Op == CallR:
		add(in.Rs1)
	case in.Op == Ret:
		add(in.Rs1)
	case in.Op == KeepLive:
		add(in.Rs1)
		add(in.Rs2)
	}
	return buf
}

// IsBarrier reports whether an instruction ends a straight-line window for
// local value tracking (labels, branches, returns).
func (o Op) IsBarrier() bool {
	switch o {
	case Label, Jmp, Bz, Bnz, Ret:
		return true
	}
	return false
}
