package codegen

import (
	"math/bits"
	"slices"
	"sort"

	"gcsafety/internal/machine"
)

// Register allocation: coarse live intervals over a basic-block CFG, then
// linear scan. Three physical registers are reserved as scratch for spill
// traffic and two-operand fixups; virtual registers whose intervals cross a
// call are allocated to stack slots outright, modelling a caller-saved
// convention — which also means every pointer value live across a call is
// explicitly stored in the (conservatively scanned) stack, exactly the
// GC-root behaviour the paper's framework assumes.

// scratchRegs is the number of reserved scratch registers.
const scratchRegs = 3

type interval struct {
	v          machine.Reg
	start, end int
	spilled    bool
	phys       machine.Reg
	slot       int32
}

// allocate maps virtual registers to physical registers or spill slots.
// spillBase is the first free frame offset; it returns the rewritten code
// and the final frame size.
func allocate(code []machine.Instr, cfg machine.Config, spillBase int32) ([]machine.Instr, int32) {
	code = coalesceKeepLive(code)
	intervals := buildIntervals(code)
	if len(intervals) == 0 {
		return code, align8(spillBase)
	}

	// Intervals crossing a call are forced to memory.
	var callPos []int
	for i, in := range code {
		if in.Op == machine.Call || in.Op == machine.CallR {
			callPos = append(callPos, i)
		}
	}
	for _, iv := range intervals {
		for _, cp := range callPos {
			if iv.start < cp && cp < iv.end {
				iv.spilled = true
				break
			}
		}
	}

	// Linear scan over the rest.
	k := cfg.NumRegs - scratchRegs
	if k < 1 {
		k = 1
	}
	free := make([]machine.Reg, 0, k)
	for r := k - 1; r >= 0; r-- {
		free = append(free, machine.Reg(r))
	}
	sorted := make([]*interval, len(intervals))
	copy(sorted, intervals)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].start < sorted[j].start })
	var active []*interval
	for _, iv := range sorted {
		if iv.spilled {
			continue
		}
		// expire old intervals
		na := active[:0]
		for _, a := range active {
			if a.end < iv.start {
				free = append(free, a.phys)
			} else {
				na = append(na, a)
			}
		}
		active = na
		if len(free) == 0 {
			// spill the active interval with the furthest end (or this one)
			victim := iv
			for _, a := range active {
				if a.end > victim.end {
					victim = a
				}
			}
			if victim != iv {
				iv.phys = victim.phys
				victim.spilled = true
				victim.phys = machine.NoReg
				for j, a := range active {
					if a == victim {
						active = append(active[:j], active[j+1:]...)
						break
					}
				}
				active = append(active, iv)
			} else {
				iv.spilled = true
			}
			continue
		}
		iv.phys = free[len(free)-1]
		free = free[:len(free)-1]
		active = append(active, iv)
	}

	// Assign spill slots.
	frame := spillBase
	byReg := map[machine.Reg]*interval{}
	for _, iv := range intervals {
		if iv.spilled {
			frame = align4(frame)
			iv.slot = frame
			frame += 4
		}
		byReg[iv.v] = iv
	}
	code = rewrite(code, byReg, cfg)
	return code, align8(frame)
}

func align4(n int32) int32 { return (n + 3) &^ 3 }
func align8(n int32) int32 { return (n + 7) &^ 7 }

// coalesceKeepLive merges a KeepLive's destination with its source when
// the source has no further uses, matching the paper's asm constraint that
// "the first argument be assigned the same location as the result".
func coalesceKeepLive(code []machine.Instr) []machine.Instr {
	counts := countRegs(code)
	rename := map[machine.Reg]machine.Reg{}
	for i, in := range code {
		if in.Op != machine.KeepLive || !in.Rs1.IsVirtual() || !in.Rd.IsVirtual() {
			continue
		}
		if counts.Uses(in.Rs1) == 1 && counts.Defs(in.Rs1) == 1 && counts.Defs(in.Rd) == 1 {
			rename[in.Rd] = in.Rs1
			code[i].Rd = in.Rs1
		}
	}
	if len(rename) == 0 {
		return code
	}
	res := func(r machine.Reg) machine.Reg {
		for {
			n, ok := rename[r]
			if !ok {
				return r
			}
			r = n
		}
	}
	for i := range code {
		in := &code[i]
		if in.Rd != machine.NoReg {
			in.Rd = res(in.Rd)
		}
		if in.Rs1 != machine.NoReg {
			in.Rs1 = res(in.Rs1)
		}
		if in.Rs2 != machine.NoReg {
			in.Rs2 = res(in.Rs2)
		}
	}
	return code
}

// regSet is a set of virtual registers, one bit each: bit r-VRegBase.
type regSet []uint64

func (s regSet) add(r machine.Reg) {
	k := int(r - machine.VRegBase)
	s[k>>6] |= 1 << (k & 63)
}

func (s regSet) remove(r machine.Reg) {
	k := int(r - machine.VRegBase)
	s[k>>6] &^= 1 << (k & 63)
}

// each calls fn on every member, in register order.
func (s regSet) each(fn func(machine.Reg)) {
	for w, word := range s {
		for word != 0 {
			fn(machine.VRegBase + machine.Reg(w<<6+bits.TrailingZeros64(word)))
			word &= word - 1
		}
	}
}

// buildIntervals computes coarse live intervals: positions of defs/uses,
// extended across whole blocks where the register is live-in/live-out.
// The intervals come back in register order.
func buildIntervals(code []machine.Instr) []*interval {
	// The virtual registers code names index the liveness sets and the
	// intervals.
	_, nv := regRange(code)
	words := (nv + 63) / 64
	type block struct {
		start, end int // [start, end)
		liveIn     regSet
		liveOut    regSet
		succs      []int
	}
	// block boundaries
	var starts []int
	starts = append(starts, 0)
	labelBlock := map[int32]int{}
	for i, in := range code {
		switch in.Op {
		case machine.Label:
			if i != 0 {
				starts = append(starts, i)
			}
		case machine.Jmp, machine.Bz, machine.Bnz, machine.Ret:
			if i+1 < len(code) {
				starts = append(starts, i+1)
			}
		}
	}
	// dedupe, keep sorted
	sort.Ints(starts)
	uniq := starts[:0]
	for i, s := range starts {
		if i == 0 || s != starts[i-1] {
			uniq = append(uniq, s)
		}
	}
	starts = uniq
	blocks := make([]block, len(starts))
	sets := make(regSet, 2*words*len(blocks))
	for i := range starts {
		end := len(code)
		if i+1 < len(starts) {
			end = starts[i+1]
		}
		blocks[i] = block{start: starts[i], end: end,
			liveIn: sets[2*i*words : (2*i+1)*words], liveOut: sets[(2*i+1)*words : (2*i+2)*words]}
		if starts[i] < len(code) && code[starts[i]].Op == machine.Label {
			labelBlock[code[starts[i]].Imm] = i
		}
	}
	for i := range blocks {
		b := &blocks[i]
		if b.start >= b.end {
			continue
		}
		last := code[b.end-1]
		switch last.Op {
		case machine.Jmp:
			if t, ok := labelBlock[last.Imm]; ok {
				b.succs = append(b.succs, t)
			}
		case machine.Bz, machine.Bnz:
			if t, ok := labelBlock[last.Imm]; ok {
				b.succs = append(b.succs, t)
			}
			if i+1 < len(blocks) {
				b.succs = append(b.succs, i+1)
			}
		case machine.Ret:
		default:
			if i+1 < len(blocks) {
				b.succs = append(b.succs, i+1)
			}
		}
	}
	// iterative liveness
	var buf []machine.Reg
	liveIn, liveOut := make(regSet, words), make(regSet, words)
	for changed := true; changed; {
		changed = false
		for i := len(blocks) - 1; i >= 0; i-- {
			b := &blocks[i]
			clear(liveOut)
			for _, s := range b.succs {
				for w, word := range blocks[s].liveIn {
					liveOut[w] |= word
				}
			}
			copy(liveIn, liveOut)
			for j := b.end - 1; j >= b.start; j-- {
				if d := defOf(code[j]); d.IsVirtual() {
					liveIn.remove(d)
				}
				buf = usesOf(code[j], buf[:0])
				for _, u := range buf {
					if u.IsVirtual() {
						liveIn.add(u)
					}
				}
			}
			if !slices.Equal(liveIn, b.liveIn) || !slices.Equal(liveOut, b.liveOut) {
				changed = true
				copy(b.liveIn, liveIn)
				copy(b.liveOut, liveOut)
			}
		}
	}
	// intervals: ivs[k] is register VRegBase+k's, v == 0 until touched
	ivs := make([]interval, nv)
	touched := 0
	touch := func(r machine.Reg, pos int) {
		if !r.IsVirtual() {
			return
		}
		iv := &ivs[r-machine.VRegBase]
		if iv.v == 0 {
			*iv = interval{v: r, start: pos, end: pos, phys: machine.NoReg}
			touched++
			return
		}
		if pos < iv.start {
			iv.start = pos
		}
		if pos > iv.end {
			iv.end = pos
		}
	}
	for i, in := range code {
		if d := defOf(in); d != machine.NoReg {
			touch(d, i)
		}
		buf = usesOf(in, buf[:0])
		for _, u := range buf {
			touch(u, i)
		}
	}
	for _, b := range blocks {
		b.liveIn.each(func(r machine.Reg) { touch(r, b.start) })
		b.liveOut.each(func(r machine.Reg) { touch(r, b.end-1) })
	}
	res := make([]*interval, 0, touched)
	for k := range ivs {
		if ivs[k].v != 0 {
			res = append(res, &ivs[k])
		}
	}
	return res
}

// rewrite replaces virtual registers with their physical assignment,
// inserting spill loads and stores through the reserved scratch registers.
// Stack-pointer-relative spill offsets are corrected for any outstanding
// outgoing-argument adjustment.
func rewrite(code []machine.Instr, byReg map[machine.Reg]*interval, cfg machine.Config) []machine.Instr {
	scratch := []machine.Reg{
		machine.Reg(cfg.NumRegs - 1),
		machine.Reg(cfg.NumRegs - 2),
		machine.Reg(cfg.NumRegs - 3),
	}
	// Size the output once: each instruction, plus a spill load per
	// spilled operand and a spill store per spilled result.
	spilled := func(r machine.Reg) bool {
		iv := byReg[r]
		return iv != nil && iv.spilled
	}
	n := len(code)
	var buf []machine.Reg
	for _, in := range code {
		buf = usesOf(in, buf[:0])
		for _, u := range buf {
			if spilled(u) {
				n++
			}
		}
		if spilled(defOf(in)) {
			n++
		}
	}
	out := make([]machine.Instr, 0, n)
	var spAdj int32
	for _, in := range code {
		if in.Op == machine.AdjSP {
			spAdj += in.Imm
			out = append(out, in)
			continue
		}
		nextScratch := 0
		takeScratch := func() machine.Reg {
			r := scratch[nextScratch%len(scratch)]
			nextScratch++
			return r
		}
		var post []machine.Instr
		mapUse := func(r machine.Reg) machine.Reg {
			if !r.IsVirtual() {
				return r
			}
			iv := byReg[r]
			if iv == nil {
				return machine.Reg(0)
			}
			if !iv.spilled {
				return iv.phys
			}
			s := takeScratch()
			out = append(out, machine.Instr{Op: machine.LdSP, Rd: s, Imm: iv.slot - spAdj})
			return s
		}
		mapDef := func(r machine.Reg) machine.Reg {
			if !r.IsVirtual() {
				return r
			}
			iv := byReg[r]
			if iv == nil {
				return machine.Reg(0)
			}
			if !iv.spilled {
				return iv.phys
			}
			s := scratch[2]
			post = append(post, machine.Instr{Op: machine.StSP, Rd: s, Imm: iv.slot - spAdj})
			return s
		}
		// uses first, then the def
		switch {
		case in.Op.IsArith():
			in.Rs1 = mapUse(in.Rs1)
			if !in.HasImm {
				in.Rs2 = mapUse(in.Rs2)
			}
			in.Rd = mapDef(in.Rd)
		case in.Op == machine.Mov:
			if !in.HasImm {
				in.Rs1 = mapUse(in.Rs1)
			}
			in.Rd = mapDef(in.Rd)
		case in.Op.IsLoad():
			in.Rs1 = mapUse(in.Rs1)
			if !in.HasImm {
				in.Rs2 = mapUse(in.Rs2)
			}
			in.Rd = mapDef(in.Rd)
		case in.Op.IsStore():
			in.Rd = mapUse(in.Rd)
			in.Rs1 = mapUse(in.Rs1)
			if !in.HasImm {
				in.Rs2 = mapUse(in.Rs2)
			}
		case in.Op == machine.StSP || in.Op == machine.Arg:
			in.Rd = mapUse(in.Rd)
		case in.Op == machine.LdSP || in.Op == machine.LeaSP:
			in.Rd = mapDef(in.Rd)
		case in.Op == machine.Bz || in.Op == machine.Bnz:
			in.Rs1 = mapUse(in.Rs1)
		case in.Op == machine.Ret:
			if in.Rs1 != machine.NoReg {
				in.Rs1 = mapUse(in.Rs1)
			}
		case in.Op == machine.Call:
			if in.Rd != machine.NoReg {
				in.Rd = mapDef(in.Rd)
			}
		case in.Op == machine.CallR:
			in.Rs1 = mapUse(in.Rs1)
			if in.Rd != machine.NoReg {
				in.Rd = mapDef(in.Rd)
			}
		case in.Op == machine.KeepLive:
			in.Rs1 = mapUse(in.Rs1)
			if in.Rs2 != machine.NoReg {
				in.Rs2 = mapUse(in.Rs2)
			}
			in.Rd = mapDef(in.Rd)
		}
		out = append(out, in)
		out = append(out, post...)
	}
	return out
}
