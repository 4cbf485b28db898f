// Package peephole implements the paper's assembly-level postprocessor
// ("A Postprocessor"): a simple peephole optimizer that removes most of
// the object-code overhead introduced by KEEP_LIVE, derived from a SPARC
// instruction scheduler. It "first performs a simple global,
// intraprocedural analysis that allows us to identify possible uses of
// register values. It subsequently looks for one of the following three
// patterns inside each basic block and transforms them appropriately":
//
//  1. add  x,y,z            ==>  ld [x+y]
//     ld   [z], ...
//  2. mov  x,z              ==>  ...x...
//     ...z...
//  3. add  x,y,z            ==>  add x,y,w
//     mov  z,w
//
// The safety constraints from the paper are honoured: the rewritten
// register must have no other uses, and "the transformation could not
// apply if z were originally mentioned as the second argument of a
// KEEP_LIVE" — KEEP_LIVE base operands count as uses in the analysis, so
// that constraint falls out of the use check. The KeepLive
// pseudo-instruction itself survives fusion (it is empty and free), keeping
// its base-liveness effect intact, which is the paper's argument (1) that
// the transformations "cannot invalidate KEEP_LIVE semantics".
package peephole

import "gcsafety/internal/machine"

// Stats reports what the postprocessor changed.
type Stats struct {
	Fused       int // pattern 1: address adds folded into memory operations
	CopiesGone  int // pattern 2: copies forwarded and removed
	Retargeted  int // pattern 3: adds retargeted through a copy
	InstrsAfter int
}

// Optimize postprocesses every function in the program in place.
func Optimize(prog *machine.Program, cfg machine.Config) Stats {
	var st Stats
	for _, name := range prog.Order {
		f := prog.Funcs[name]
		f.Code = optimizeFunc(f.Code, cfg, &st)
		st.InstrsAfter += f.Size()
	}
	return st
}

func optimizeFunc(code []machine.Instr, cfg machine.Config, st *Stats) []machine.Instr {
	for pass := 0; pass < 8; pass++ {
		changed := false
		a := analyze(code)
		if cfg.LoadIndexed {
			if c, n := fuseAddLoad(code, a); c {
				code, changed = n, true
				st.Fused++
				continue
			}
		}
		if c, n := forwardCopy(code, a); c {
			code, changed = n, true
			st.CopiesGone++
			continue
		}
		if c, n := retargetAdd(code, a); c {
			code, changed = n, true
			st.Retargeted++
			continue
		}
		if !changed {
			break
		}
	}
	return code
}

// analysis holds block structure and per-block liveness of physical
// registers (the "possible uses of register values").
type analysis struct {
	code    []machine.Instr
	starts  []int
	liveOut []map[machine.Reg]bool
}

func analyze(code []machine.Instr) *analysis {
	a := &analysis{code: code}
	a.starts = append(a.starts, 0)
	labelBlock := map[int32]int{}
	for i, in := range code {
		switch in.Op {
		case machine.Label:
			if i != 0 {
				a.starts = append(a.starts, i)
			}
		case machine.Jmp, machine.Bz, machine.Bnz, machine.Ret:
			if i+1 < len(code) {
				a.starts = append(a.starts, i+1)
			}
		}
	}
	// dedupe sorted starts
	uniq := a.starts[:0]
	prev := -1
	for _, s := range a.starts {
		if s != prev {
			uniq = append(uniq, s)
			prev = s
		}
	}
	a.starts = uniq
	n := len(a.starts)
	ends := make([]int, n)
	succs := make([][]int, n)
	liveIn := make([]map[machine.Reg]bool, n)
	a.liveOut = make([]map[machine.Reg]bool, n)
	for i := range a.starts {
		if i+1 < n {
			ends[i] = a.starts[i+1]
		} else {
			ends[i] = len(code)
		}
		liveIn[i] = map[machine.Reg]bool{}
		a.liveOut[i] = map[machine.Reg]bool{}
		if a.starts[i] < len(code) && code[a.starts[i]].Op == machine.Label {
			labelBlock[code[a.starts[i]].Imm] = i
		}
	}
	for i := range a.starts {
		if a.starts[i] >= ends[i] {
			continue
		}
		last := code[ends[i]-1]
		switch last.Op {
		case machine.Jmp:
			if t, ok := labelBlock[last.Imm]; ok {
				succs[i] = append(succs[i], t)
			}
		case machine.Bz, machine.Bnz:
			if t, ok := labelBlock[last.Imm]; ok {
				succs[i] = append(succs[i], t)
			}
			if i+1 < n {
				succs[i] = append(succs[i], i+1)
			}
		case machine.Ret:
		default:
			if i+1 < n {
				succs[i] = append(succs[i], i+1)
			}
		}
	}
	var buf []machine.Reg
	for changed := true; changed; {
		changed = false
		for i := n - 1; i >= 0; i-- {
			out := map[machine.Reg]bool{}
			for _, s := range succs[i] {
				for r := range liveIn[s] {
					out[r] = true
				}
			}
			in := map[machine.Reg]bool{}
			for r := range out {
				in[r] = true
			}
			for j := ends[i] - 1; j >= a.starts[i]; j-- {
				if d := machine.Def(code[j]); d != machine.NoReg {
					delete(in, d)
				}
				buf = machine.Uses(code[j], buf[:0])
				for _, u := range buf {
					in[u] = true
				}
			}
			if !sameSet(in, liveIn[i]) || !sameSet(out, a.liveOut[i]) {
				changed = true
			}
			liveIn[i], a.liveOut[i] = in, out
		}
	}
	return a
}

func sameSet(x, y map[machine.Reg]bool) bool {
	if len(x) != len(y) {
		return false
	}
	for r := range x {
		if !y[r] {
			return false
		}
	}
	return true
}

// blockOf returns the index of the block containing pos.
func (a *analysis) blockOf(pos int) int {
	b := 0
	for i, s := range a.starts {
		if s <= pos {
			b = i
		} else {
			break
		}
	}
	return b
}

// blockEnd returns the end (exclusive) of the block containing pos.
func (a *analysis) blockEnd(pos int) int {
	b := a.blockOf(pos)
	if b+1 < len(a.starts) {
		return a.starts[b+1]
	}
	return len(a.code)
}

// deadAfter reports whether r has no possible use after position pos
// (exclusive) before being redefined.
func (a *analysis) deadAfter(pos int, r machine.Reg) bool {
	end := a.blockEnd(pos)
	var buf []machine.Reg
	for j := pos + 1; j < end; j++ {
		buf = machine.Uses(a.code[j], buf[:0])
		for _, u := range buf {
			if u == r {
				return false
			}
		}
		if machine.Def(a.code[j]) == r {
			return true
		}
	}
	return !a.liveOut[a.blockOf(pos)][r]
}

func remove(code []machine.Instr, i int) []machine.Instr {
	out := make([]machine.Instr, 0, len(code)-1)
	out = append(out, code[:i]...)
	out = append(out, code[i+1:]...)
	return out
}

// fuseAddLoad implements pattern 1, looking through an intervening
// KeepLive (which is empty and stays).
func fuseAddLoad(code []machine.Instr, a *analysis) (bool, []machine.Instr) {
	var buf []machine.Reg
	for i, add := range code {
		if add.Op != machine.Add || add.Rd == machine.NoReg {
			continue
		}
		z := add.Rd
		if !add.HasImm && (z == add.Rs1 || z == add.Rs2) {
			continue // sources must survive to the fused load
		}
		if add.HasImm && z == add.Rs1 {
			continue
		}
		end := a.blockEnd(i)
		klIdx := -1
		for j := i + 1; j < end; j++ {
			u := code[j]
			// operands must not change before the use of z
			d := machine.Def(u)
			usesZ := false
			buf = machine.Uses(u, buf[:0])
			for _, r := range buf {
				if r == z {
					usesZ = true
				}
			}
			if usesZ {
				switch {
				case u.Op == machine.KeepLive && u.Rs1 == z && u.Rd == z && klIdx < 0:
					// the empty asm pinning z; keep scanning for the load
					klIdx = j
					continue
				case (u.Op.IsLoad() || u.Op.IsStore()) && u.Rs1 == z && u.HasImm && u.Imm == 0 &&
					(u.Op.IsStore() || u.Rd != z):
					if !a.deadAfter(j, z) {
						break
					}
					// fold the add into the addressing mode
					code[j].Rs1 = add.Rs1
					if add.HasImm {
						code[j].Imm = add.Imm
					} else {
						code[j].HasImm = false
						code[j].Rs2 = add.Rs2
					}
					// keep the KeepLive's base-liveness effect, now pinned
					// to the loaded value
					if klIdx >= 0 {
						kl := code[klIdx]
						tgt := code[j].Rd
						if code[j].Op.IsStore() {
							tgt = code[j].Rs1
						}
						code[klIdx] = machine.Instr{
							Op: machine.KeepLive, Rd: tgt, Rs1: tgt, Rs2: kl.Rs2,
							Comment: kl.Comment,
						}
						// it must follow the memory op to pin the new value:
						// move it if it currently precedes
						if klIdx < j {
							klInstr := code[klIdx]
							copy(code[klIdx:j], code[klIdx+1:j+1])
							code[j] = klInstr
						}
					}
					return true, remove(code, i)
				}
				break
			}
			if d == z || d == add.Rs1 || (!add.HasImm && d == add.Rs2) {
				break
			}
			if u.Op == machine.Call || u.Op == machine.CallR {
				break
			}
		}
	}
	return false, code
}

// forwardCopy implements pattern 2: a register copy whose target can be
// replaced by its source until either is redefined.
func forwardCopy(code []machine.Instr, a *analysis) (bool, []machine.Instr) {
	for i, mv := range code {
		if mv.Op != machine.Mov || mv.HasImm || mv.Rd == mv.Rs1 {
			continue
		}
		z, x := mv.Rd, mv.Rs1
		end := a.blockEnd(i)
		replaced := false
		ok := true
		j := i + 1
		for ; j < end; j++ {
			u := &code[j]
			// replace uses of z by x
			usesZ := instrUses(*u, z)
			if usesZ {
				replaceUses(u, z, x)
				replaced = true
			}
			d := machine.Def(*u)
			if d == x {
				// source changes: z must be dead from here on
				if !a.deadAfter(j, z) {
					ok = false
				}
				break
			}
			if d == z {
				break
			}
		}
		if j == end && a.liveOut[a.blockOf(i)][z] {
			ok = false // z escapes the block; cannot delete the copy
		}
		if ok && replaced {
			return true, remove(code, i)
		}
		if replaced && !ok {
			// roll back is awkward; instead accept the propagation and keep
			// the mov (still correct: uses were replaced by an equal value)
			return true, code
		}
	}
	return false, code
}

func instrUses(in machine.Instr, r machine.Reg) bool {
	var buf [3]machine.Reg
	for _, u := range machine.Uses(in, buf[:0]) {
		if u == r {
			return true
		}
	}
	return false
}

// replaceUses substitutes register x for uses of z in one instruction.
func replaceUses(in *machine.Instr, z, x machine.Reg) {
	rep := func(r machine.Reg) machine.Reg {
		if r == z {
			return x
		}
		return r
	}
	switch {
	case in.Op.IsArith():
		in.Rs1 = rep(in.Rs1)
		if !in.HasImm {
			in.Rs2 = rep(in.Rs2)
		}
	case in.Op == machine.Mov && !in.HasImm:
		in.Rs1 = rep(in.Rs1)
	case in.Op.IsLoad():
		in.Rs1 = rep(in.Rs1)
		if !in.HasImm {
			in.Rs2 = rep(in.Rs2)
		}
	case in.Op.IsStore():
		in.Rd = rep(in.Rd)
		in.Rs1 = rep(in.Rs1)
		if !in.HasImm {
			in.Rs2 = rep(in.Rs2)
		}
	case in.Op == machine.StSP || in.Op == machine.Arg:
		in.Rd = rep(in.Rd)
	case in.Op == machine.Bz || in.Op == machine.Bnz || in.Op == machine.CallR:
		in.Rs1 = rep(in.Rs1)
	case in.Op == machine.Ret:
		in.Rs1 = rep(in.Rs1)
	case in.Op == machine.KeepLive:
		in.Rs1 = rep(in.Rs1)
		in.Rs2 = rep(in.Rs2)
	}
}

// retargetAdd implements pattern 3: `add x,y,z; ...; mov w,z` with z
// otherwise unused becomes `add x,y,w`.
func retargetAdd(code []machine.Instr, a *analysis) (bool, []machine.Instr) {
	for i, add := range code {
		if add.Op != machine.Add || add.Rd == machine.NoReg {
			continue
		}
		z := add.Rd
		end := a.blockEnd(i)
		for j := i + 1; j < end; j++ {
			u := code[j]
			if instrUses(u, z) {
				if u.Op == machine.Mov && !u.HasImm && u.Rs1 == z && u.Rd != z {
					w := u.Rd
					// w must be unused in between, z dead after the mov
					if a.deadAfter(j, z) && !usedBetween(code, i+1, j, w) &&
						w != add.Rs1 && (add.HasImm || w != add.Rs2) {
						code[i].Rd = w
						return true, remove(code, j)
					}
				}
				break
			}
			d := machine.Def(u)
			if d == z || d == add.Rs1 || (!add.HasImm && d == add.Rs2) {
				break
			}
		}
	}
	return false, code
}

// usedBetween reports whether r is used or defined in code[lo:hi].
func usedBetween(code []machine.Instr, lo, hi int, r machine.Reg) bool {
	for j := lo; j < hi; j++ {
		if instrUses(code[j], r) || machine.Def(code[j]) == r {
			return true
		}
	}
	return false
}
