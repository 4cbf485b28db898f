package codegen

import (
	"fmt"
	"strings"
	"testing"

	"gcsafety/internal/cc/parser"
	"gcsafety/internal/machine"
)

// White-box tests for the optimizer passes.

const v0, v1, v2, v3, v4 = machine.VRegBase, machine.VRegBase + 1,
	machine.VRegBase + 2, machine.VRegBase + 3, machine.VRegBase + 4

func TestConstFoldEvaluates(t *testing.T) {
	code := []machine.Instr{
		machine.RI(machine.Mov, v0, machine.NoReg, 6),
		machine.RI(machine.Mov, v1, machine.NoReg, 7),
		machine.RR(machine.Mul, v2, v0, v1),
		{Op: machine.Ret, Rs1: v2},
	}
	out := constFold(code)
	found := false
	for _, in := range out {
		if in.Op == machine.Mov && in.Rd == v2 && in.HasImm && in.Imm == 42 {
			found = true
		}
	}
	if !found {
		t.Fatalf("6*7 not folded: %v", out)
	}
}

func TestConstFoldStrengthReduction(t *testing.T) {
	code := []machine.Instr{
		machine.RI(machine.Mul, v1, v0, 8),
		{Op: machine.Ret, Rs1: v1},
	}
	out := constFold(code)
	if out[0].Op != machine.Shl || out[0].Imm != 3 {
		t.Fatalf("mul by 8 not reduced to shl 3: %v", out[0])
	}
}

func TestConstFoldAddZero(t *testing.T) {
	code := []machine.Instr{
		machine.RI(machine.Add, v1, v0, 0),
		{Op: machine.Ret, Rs1: v1},
	}
	out := constFold(code)
	if out[0].Op != machine.Mov {
		t.Fatalf("add 0 not turned into mov: %v", out[0])
	}
}

func TestConstFoldStopsAtBarriers(t *testing.T) {
	code := []machine.Instr{
		machine.RI(machine.Mov, v0, machine.NoReg, 5),
		{Op: machine.Label, Imm: 0},
		machine.RI(machine.Add, v1, v0, 1), // v0 may differ on re-entry
		{Op: machine.Bnz, Rs1: v1, Imm: 0},
	}
	out := constFold(code)
	if out[2].Op != machine.Add {
		t.Fatalf("constant tracked across a label: %v", out[2])
	}
}

func TestCopyPropRewritesUses(t *testing.T) {
	code := []machine.Instr{
		machine.RR(machine.Mov, v1, v0, machine.NoReg),
		machine.RI(machine.Add, v2, v1, 3),
		{Op: machine.Ret, Rs1: v2},
	}
	out := copyProp(code)
	if out[1].Rs1 != v0 {
		t.Fatalf("use not rewritten to the copy source: %v", out[1])
	}
}

func TestCopyPropInvalidatedByRedefinition(t *testing.T) {
	code := []machine.Instr{
		machine.RR(machine.Mov, v1, v0, machine.NoReg),
		machine.RI(machine.Mov, v0, machine.NoReg, 9), // v0 changes
		machine.RI(machine.Add, v2, v1, 3),            // must still use v1
		{Op: machine.Ret, Rs1: v2},
	}
	out := copyProp(code)
	if out[2].Rs1 != v1 {
		t.Fatalf("stale copy propagated past a redefinition: %v", out[2])
	}
}

func TestLocalCSE(t *testing.T) {
	code := []machine.Instr{
		machine.RI(machine.Add, v1, v0, 8),
		machine.RI(machine.Ld, v2, v1, 0),
		machine.RI(machine.Add, v3, v0, 8), // same computation
		machine.RI(machine.Ld, v4, v3, 0),
		{Op: machine.Ret, Rs1: v4},
	}
	out := localCSE(code)
	if out[2].Op != machine.Mov || out[2].Rs1 != v1 {
		t.Fatalf("repeated add not CSE'd: %v", out[2])
	}
}

func TestCSEInvalidatedByOperandChange(t *testing.T) {
	code := []machine.Instr{
		machine.RI(machine.Add, v1, v0, 8),
		machine.RI(machine.Add, v0, v0, 4), // v0 changes
		machine.RI(machine.Add, v2, v0, 8), // not the same value anymore
		{Op: machine.Ret, Rs1: v2},
	}
	out := localCSE(code)
	if out[2].Op != machine.Add {
		t.Fatalf("stale CSE after operand redefinition: %v", out[2])
	}
}

func TestReassociateHoistsConstant(t *testing.T) {
	// t = i - 1000 ; a = p + t  =>  t = p - 1000 ; a = t + i
	i, p := v0, v1
	code := []machine.Instr{
		machine.RI(machine.Sub, v2, i, 1000),
		machine.RR(machine.Add, v3, p, v2),
		machine.RI(machine.Ld, v4, v3, 0),
		{Op: machine.Call, Rd: machine.NoReg, Sym: "use"}, // keeps p "used later"? no: p unused after
		{Op: machine.Ret, Rs1: v4},
	}
	out := reassociate(code)
	// The base p dies at the add, so the dying-register form applies:
	// sub p, p, 1000 ; add a, p, i
	if !(out[0].Op == machine.Sub && out[0].Rd == p && out[0].Rs1 == p && out[0].Imm == 1000) {
		t.Fatalf("expected `sub p, p, 1000`, got %v", out[0])
	}
	if !(out[1].Op == machine.Add && out[1].Rs1 == p && out[1].Rs2 == i) {
		t.Fatalf("expected `add a, p, i`, got %v", out[1])
	}
}

func TestReassociateKeepsBaseWhenReused(t *testing.T) {
	i, p := v0, v1
	code := []machine.Instr{
		machine.RI(machine.Sub, v2, i, 1000),
		machine.RR(machine.Add, v3, p, v2),
		{Op: machine.KeepLive, Rd: v4, Rs1: v3, Rs2: p}, // p used again: KEEP_LIVE base
		machine.RI(machine.Ld, v4+1, v4, 0),
		{Op: machine.Ret, Rs1: v4 + 1},
	}
	out := reassociate(code)
	// p has a later use, so the intermediate must go to the temp, not p.
	if out[0].Rd == p {
		t.Fatalf("dying-register rewrite applied although p is a KEEP_LIVE base: %v", out[0])
	}
	if !(out[0].Op == machine.Sub && out[0].Rs1 == p && out[0].Imm == 1000) {
		t.Fatalf("constant not hoisted onto the pointer: %v", out[0])
	}
}

func TestReassociateSkipsLaterDefinedBase(t *testing.T) {
	// The base operand is defined between t and the add: hoisting would
	// read an undefined register.
	code := []machine.Instr{
		machine.RI(machine.Sub, v2, v0, 8),              // t = i - 8
		machine.RI(machine.Mov, v1, machine.NoReg, 100), // base defined *here*
		machine.RR(machine.Add, v3, v1, v2),
		{Op: machine.Ret, Rs1: v3},
	}
	out := reassociate(code)
	if out[0].Rs1 != v0 {
		t.Fatalf("reassociation read an undefined base: %v", out)
	}
}

func TestDeadCodeElim(t *testing.T) {
	code := []machine.Instr{
		machine.RI(machine.Mov, v0, machine.NoReg, 1), // dead
		machine.RI(machine.Mov, v1, machine.NoReg, 2),
		machine.RI(machine.Add, v2, v1, 3), // dead chain head
		machine.RI(machine.Add, v3, v1, 4),
		{Op: machine.Ret, Rs1: v3},
	}
	out := deadCodeElim(code)
	if len(out) != 3 {
		t.Fatalf("dead code left: %v", out)
	}
}

func TestDeadCodeKeepsKeepLive(t *testing.T) {
	code := []machine.Instr{
		machine.RI(machine.Mov, v0, machine.NoReg, 1),
		{Op: machine.KeepLive, Rd: v1, Rs1: v0, Rs2: machine.NoReg}, // result unused
		{Op: machine.Ret, Rs1: machine.NoReg},
	}
	out := deadCodeElim(code)
	found := false
	for _, in := range out {
		if in.Op == machine.KeepLive {
			found = true
		}
	}
	if !found {
		t.Fatal("KeepLive eliminated as dead code")
	}
}

func TestFoldLoadAddresses(t *testing.T) {
	code := []machine.Instr{
		machine.RR(machine.Add, v2, v0, v1),
		machine.RI(machine.Ld, v3, v2, 0),
		{Op: machine.Ret, Rs1: v3},
	}
	out := foldLoadAddresses(code)
	if len(out) != 2 || out[0].Op != machine.Ld || out[0].Rs1 != v0 || out[0].Rs2 != v1 {
		t.Fatalf("load address not folded: %v", out)
	}
}

func TestFoldBlockedByKeepLive(t *testing.T) {
	// The KeepLive consumes the add's result, so the load's address comes
	// from the pseudo-instruction and the fold cannot apply — the paper's
	// Analysis-section phenomenon.
	code := []machine.Instr{
		machine.RR(machine.Add, v2, v0, v1),
		{Op: machine.KeepLive, Rd: v3, Rs1: v2, Rs2: v0},
		machine.RI(machine.Ld, v4, v3, 0),
		{Op: machine.Ret, Rs1: v4},
	}
	out := foldLoadAddresses(code)
	if len(out) != 4 {
		t.Fatalf("fold happened across a KeepLive: %v", out)
	}
}

func TestAllocateSpillsAcrossCalls(t *testing.T) {
	// A value live across a call must be in memory (our caller-saved
	// convention), which also makes it a scanned GC root.
	code := []machine.Instr{
		machine.RI(machine.Mov, v0, machine.NoReg, 7),
		{Op: machine.Call, Rd: v1, Sym: "g"},
		machine.RR(machine.Add, v2, v0, v1),
		{Op: machine.Ret, Rs1: v2},
	}
	out, frame := allocate(code, machine.SPARCstation10(), 0)
	if frame == 0 {
		t.Fatal("no spill slot allocated for the call-crossing value")
	}
	var hasStore, hasReload bool
	for _, in := range out {
		if in.Op == machine.StSP {
			hasStore = true
		}
		if in.Op == machine.LdSP {
			hasReload = true
		}
	}
	if !hasStore || !hasReload {
		t.Fatalf("spill traffic missing: %v", out)
	}
}

func TestAllocateNoVirtualsRemain(t *testing.T) {
	code := []machine.Instr{
		machine.RI(machine.Mov, v0, machine.NoReg, 1),
		machine.RI(machine.Add, v1, v0, 2),
		machine.RR(machine.Add, v2, v0, v1),
		{Op: machine.Ret, Rs1: v2},
	}
	out, _ := allocate(code, machine.Pentium90(), 0)
	var buf []machine.Reg
	for _, in := range out {
		if d := machine.Def(in); d.IsVirtual() {
			t.Fatalf("virtual def survives allocation: %v", in)
		}
		buf = machine.Uses(in, buf[:0])
		for _, u := range buf {
			if u.IsVirtual() {
				t.Fatalf("virtual use survives allocation: %v", in)
			}
		}
	}
}

func TestCoalesceKeepLive(t *testing.T) {
	code := []machine.Instr{
		machine.RI(machine.Add, v1, v0, 4),
		{Op: machine.KeepLive, Rd: v2, Rs1: v1, Rs2: v0},
		machine.RI(machine.Ld, v3, v2, 0),
		{Op: machine.Ret, Rs1: v3},
	}
	out := coalesceKeepLive(code)
	for _, in := range out {
		if in.Op == machine.KeepLive && in.Rd != in.Rs1 {
			t.Fatalf("KeepLive not coalesced: %v", in)
		}
	}
}

func TestTwoOperandFixup(t *testing.T) {
	cfg := machine.Pentium90()
	code := []machine.Instr{
		machine.RR(machine.Sub, 2, 0, 1), // rd != rs1: needs a mov on x86
		{Op: machine.Ret, Rs1: 2},
	}
	out := lower(code, Options{Machine: cfg}, 0, 0)
	if out[0].Op != machine.Mov || out[0].Rd != 2 || out[0].Rs1 != 0 {
		t.Fatalf("two-operand fixup missing: %v", out)
	}
	if out[1].Op != machine.Sub || out[1].Rd != 2 || out[1].Rs1 != 2 {
		t.Fatalf("destructive form wrong: %v", out)
	}
	// Commutative case swaps instead of copying.
	code2 := []machine.Instr{
		machine.RR(machine.Add, 2, 0, 2),
		{Op: machine.Ret, Rs1: 2},
	}
	out2 := lower(code2, Options{Machine: cfg}, 0, 0)
	if out2[0].Op != machine.Add || out2[0].Rs1 != 2 || out2[0].Rs2 != 0 {
		t.Fatalf("commutative swap missing: %v", out2)
	}
}

func TestLowerParamOffsets(t *testing.T) {
	code := []machine.Instr{
		{Op: machine.AdjSP, Imm: 0},
		{Op: machine.LdSP, Rd: 0, Imm: 4, Comment: "param"},
		{Op: machine.LdSP, Rd: 1, Imm: paramBase + 8},
		{Op: machine.Ret, Rs1: 0},
	}
	out := lower(code, Options{Machine: machine.SPARCstation10()}, 32, 3)
	if out[0].Op != machine.AdjSP || out[0].Imm != -32 {
		t.Fatalf("prologue not patched: %v", out[0])
	}
	if out[1].Imm != 36 { // 4 + frame
		t.Fatalf("vreg param offset = %d, want 36", out[1].Imm)
	}
	if out[2].Imm != 40 { // 8 + frame
		t.Fatalf("slot param offset = %d, want 40", out[2].Imm)
	}
}

// BenchmarkOptimize times the -O pipeline on one straight-line block of
// n instructions: main returning the flat chain x+x+…, whose generated
// code is a copy and an add per term. Every redefinition invalidates
// entries of the copy-propagation and CSE tables, so the time per
// instruction stays flat only if a redefinition costs the same however
// large the tables have grown. Each iteration optimizes a fresh copy of
// the generated code.
func BenchmarkOptimize(b *testing.B) {
	for _, n := range []int{1 << 10, 4 << 10, 16 << 10} {
		b.Run(fmt.Sprintf("instrs=%d", n), func(b *testing.B) {
			src := "int main(void) { int x = 1; return x" + strings.Repeat("+x", n/2) + "; }"
			f, err := parser.Parse("chain.c", src)
			if err != nil {
				b.Fatal(err)
			}
			opts := Options{Optimize: true, Machine: machine.SPARCstation10()}
			ir, err := Gen(f, opts)
			if err != nil {
				b.Fatal(err)
			}
			gen := ir.Fns[0].Code
			code := make([]machine.Instr, len(gen))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(code, gen)
				optimize(code, opts)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(gen)), "ns/instr")
		})
	}
}
