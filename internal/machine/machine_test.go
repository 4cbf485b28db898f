package machine

import (
	"strings"
	"testing"
	"unsafe"
)

func TestConfigsDistinct(t *testing.T) {
	cfgs := Configs()
	if len(cfgs) != 3 {
		t.Fatalf("want 3 machines, got %d", len(cfgs))
	}
	names := map[string]bool{}
	for _, c := range cfgs {
		if names[c.Name] {
			t.Errorf("duplicate machine %s", c.Name)
		}
		names[c.Name] = true
		if c.NumRegs < 4 {
			t.Errorf("%s: too few registers (%d)", c.Name, c.NumRegs)
		}
	}
	if !Pentium90().TwoOperand || SPARCstation2().TwoOperand {
		t.Error("two-operand flags wrong")
	}
}

func TestCostModel(t *testing.T) {
	cfg := SPARCstation10()
	if cfg.CostOf(KeepLive) != 0 {
		t.Error("KeepLive must be free (an empty asm instruction)")
	}
	if cfg.CostOf(Label) != 0 || cfg.CostOf(Nop) != 0 {
		t.Error("pseudo-instructions must be free")
	}
	if cfg.CostOf(Ld) == 0 || cfg.CostOf(St) == 0 || cfg.CostOf(Add) == 0 {
		t.Error("real instructions must cost cycles")
	}
	if cfg.CostOf(Div) <= cfg.CostOf(Mul) || cfg.CostOf(Mul) <= cfg.CostOf(Add) {
		t.Error("cost ordering add < mul < div expected")
	}
}

func TestDefAndUses(t *testing.T) {
	cases := []struct {
		in   Instr
		def  Reg
		uses []Reg
	}{
		{RR(Add, 1, 2, 3), 1, []Reg{2, 3}},
		{RI(Add, 1, 2, 7), 1, []Reg{2}},
		{RR(Mov, 1, 2, NoReg), 1, []Reg{2}},
		{RI(Mov, 1, NoReg, 7), 1, nil},
		{RI(Ld, 1, 2, 0), 1, []Reg{2}},
		{Instr{Op: St, Rd: 1, Rs1: 2, HasImm: true, Imm: 4}, NoReg, []Reg{1, 2}},
		{Instr{Op: St, Rd: 1, Rs1: 2, Rs2: 3}, NoReg, []Reg{1, 2, 3}},
		{Instr{Op: Bz, Rs1: 5, Imm: 1}, NoReg, []Reg{5}},
		{Instr{Op: Ret, Rs1: 5}, NoReg, []Reg{5}},
		{Instr{Op: Call, Rd: 4, Sym: "f"}, 4, nil},
		{Instr{Op: CallR, Rd: 4, Rs1: 6}, 4, []Reg{6}},
		{Instr{Op: KeepLive, Rd: 1, Rs1: 2, Rs2: 3}, 1, []Reg{2, 3}},
		{Instr{Op: Arg, Rd: 7, Imm: 0}, NoReg, []Reg{7}},
		{Instr{Op: LdSP, Rd: 7, Imm: 0}, 7, nil},
		{Instr{Op: StSP, Rd: 7, Imm: 0}, NoReg, []Reg{7}},
		{Instr{Op: LeaSP, Rd: 7, Imm: 0}, 7, nil},
	}
	for i, c := range cases {
		if got := Def(c.in); got != c.def {
			t.Errorf("case %d (%s): def = %v, want %v", i, c.in, got, c.def)
		}
		got := Uses(c.in, nil)
		if len(got) != len(c.uses) {
			t.Errorf("case %d (%s): uses = %v, want %v", i, c.in, got, c.uses)
			continue
		}
		for j := range got {
			if got[j] != c.uses[j] {
				t.Errorf("case %d use %d = %v, want %v", i, j, got[j], c.uses[j])
			}
		}
	}
}

// TestUsesAllocFree pins the compiler's use-scan contract: Uses appends
// into the caller's buffer, so a buffer with room for an instruction's
// three operands is reused without allocating.
func TestUsesAllocFree(t *testing.T) {
	buf := make([]Reg, 0, 3)
	ins := []Instr{
		RR(Add, 1, 2, 3),
		{Op: St, Rd: 1, Rs1: 2, Rs2: 3},
		{Op: KeepLive, Rd: 1, Rs1: 2, Rs2: 3},
	}
	allocs := testing.AllocsPerRun(100, func() {
		for _, in := range ins {
			buf = Uses(in, buf[:0])
		}
	})
	if allocs != 0 {
		t.Fatalf("Uses allocates %.1f objects per call, want 0", allocs)
	}
	if cap(buf) != 3 {
		t.Fatalf("Uses regrew the buffer to capacity %d", cap(buf))
	}
}

func TestListingAndSize(t *testing.T) {
	f := &Func{
		Name: "f",
		Code: []Instr{
			{Op: Label, Imm: 0},
			RI(Add, 0, 1, 4),
			{Op: KeepLive, Rd: 0, Rs1: 0, Rs2: 1},
			RI(Ld, 2, 0, 0),
			{Op: Ret, Rs1: 2},
		},
	}
	p := &Program{Funcs: map[string]*Func{"f": f}, Order: []string{"f"}}
	// labels and keeplive do not contribute object bytes
	if got := p.Size(); got != 3 {
		t.Fatalf("Size = %d, want 3", got)
	}
	if got := f.Size(); got != 3 {
		t.Fatalf("Func.Size = %d, want 3", got)
	}
	l := p.Listing()
	for _, want := range []string{"f:", "add", "keeplive", "ld", "ret", ".L0:"} {
		if !strings.Contains(l, want) {
			t.Errorf("listing missing %q:\n%s", want, l)
		}
	}
}

func TestInstrStringForms(t *testing.T) {
	cases := []struct {
		in   Instr
		want string
	}{
		{RI(Add, 1, 2, 7), "add %r1, %r2, 7"},
		{RR(Sub, 1, 2, 3), "sub %r1, %r2, %r3"},
		{RI(Mov, 1, NoReg, 9), "mov %r1, 9"},
		{RI(Ld, 1, 2, 8), "ld %r1, [%r2+8]"},
		{Instr{Op: LdB, Rd: 1, Rs1: 2, Rs2: 3}, "ldsb %r1, [%r2+%r3]"},
		{Instr{Op: Jmp, Imm: 3}, "jmp .L3"},
		{Instr{Op: Bz, Rs1: 1, Imm: 2}, "bz %r1, .L2"},
		{Instr{Op: Call, Sym: "strlen"}, "call strlen"},
		{Instr{Op: AdjSP, Imm: -16}, "adjsp -16"},
		{Instr{Op: LeaSP, Rd: 1, Imm: 8}, "leasp %r1, [sp+8]"},
	}
	for _, c := range cases {
		got := strings.TrimSpace(c.in.String())
		if got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestVirtualRegisters(t *testing.T) {
	if Reg(5).IsVirtual() {
		t.Error("physical register reported virtual")
	}
	if !VRegBase.IsVirtual() || !(VRegBase + 100).IsVirtual() {
		t.Error("virtual register not recognized")
	}
	in := RR(Add, VRegBase, VRegBase+1, VRegBase+2)
	if !strings.Contains(in.String(), "v0") || !strings.Contains(in.String(), "v2") {
		t.Errorf("virtual register printing: %s", in)
	}
}

func TestOpClassPredicates(t *testing.T) {
	if !Ld.IsLoad() || !LdB.IsLoad() || St.IsLoad() {
		t.Error("IsLoad")
	}
	if !St.IsStore() || !StH.IsStore() || Ld.IsStore() {
		t.Error("IsStore")
	}
	if !CmpEq.IsCmp() || Add.IsCmp() {
		t.Error("IsCmp")
	}
	if !Add.IsArith() || !CmpGeu.IsArith() || Mov.IsArith() || Ld.IsArith() {
		t.Error("IsArith")
	}
	if !Label.IsBarrier() || !Ret.IsBarrier() || Add.IsBarrier() {
		t.Error("IsBarrier")
	}
}

// The interpreter's dispatch throughput depends on Instr being exactly one
// cache line: []Instr then strides in 64-byte steps and no instruction
// straddles two lines. New fields must go into padding holes, not grow it.
func TestInstrSize(t *testing.T) {
	if got := unsafe.Sizeof(Instr{}); got != 64 {
		t.Fatalf("sizeof(Instr) = %d, want 64 (fit new fields into padding)", got)
	}
}
