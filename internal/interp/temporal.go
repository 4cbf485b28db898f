package interp

import (
	"fmt"

	"gcsafety/internal/machine"
)

// Temporal mode: the machine half of the temporal-safety checker.
//
// The collector half (internal/gc epoch.go) stamps every allocation with a
// monotonically increasing epoch. This file tracks, purely on the side, the
// epoch each pointer value was born with: every register and every word of
// memory carries a shadow tag — 0 meaning "provenance unknown", nonzero
// meaning "derived from the allocation with this epoch". Tags originate
// only at allocation results, flow through moves, pointer arithmetic,
// loads/stores and the KEEP_LIVE/GC_same_obj runtime, and are checked at
// every memory access through a tagged register: if the object now at the
// target address is gone (use-after-free) or wears a different epoch
// (storage recycled since the pointer was derived), the access faults with
// a TemporalError wrapped in CheckError. Tags add no simulated cycles; like
// the access validator they are harness machinery, not modeled hardware.

// TemporalError reports a temporal-safety check failure: a use of storage
// that was explicitly freed (and possibly recycled) after the pointer was
// derived. Addr is the faulting address (0 when unknown); heap-profile
// runs feed it to the snapshot forensics renderer.
type TemporalError struct {
	Msg  string
	Addr uint32
}

func (e *TemporalError) Error() string { return "temporal check failed: " + e.Msg }

// TemporalState is the shadow-tag store. regTags is swapped per thread in
// concurrent mode; memTags covers the whole (shared) address space at word
// granularity, with absent entries meaning tag 0. Track owns all
// propagation; the dispatch loop only consumes SetTag/RetTag at
// call-return sites.
type TemporalState struct {
	regTags []uint32
	memTags map[uint32]uint32
	// RetTag carries the tag of the value a runtime builtin or user
	// function is about to return to the caller's result register.
	RetTag uint32
}

func newTemporalState(nregs int) *TemporalState {
	return &TemporalState{
		regTags: make([]uint32, nregs),
		memTags: make(map[uint32]uint32),
	}
}

func (t *TemporalState) tag(r machine.Reg) uint32 {
	if r == machine.NoReg || int(r) >= len(t.regTags) {
		return 0
	}
	return t.regTags[r]
}

// SetTag tags register r (NoReg and out-of-range writes are dropped,
// mirroring SetReg).
func (t *TemporalState) SetTag(r machine.Reg, v uint32) {
	if r == machine.NoReg || int(r) >= len(t.regTags) {
		return
	}
	t.regTags[r] = v
}

func (t *TemporalState) memTag(a uint32) uint32 { return t.memTags[a&^3] }

func (t *TemporalState) setMemTag(a, v uint32) {
	a &^= 3
	if v == 0 {
		delete(t.memTags, a)
		return
	}
	t.memTags[a] = v
}

// Track runs once per instruction, before the opcode executes: it checks
// memory operands addressed through a tagged register against the heap's
// current epochs, then propagates tags to the destination. Untagged (0)
// always passes — tags only originate at allocations, so programs that
// never touch stale storage never fault.
func (c *Machine) Track(in *machine.Instr) error {
	tt := c.TT
	switch in.Op {
	case machine.Ld, machine.LdB, machine.LdBu, machine.LdH, machine.LdHu,
		machine.St, machine.StB, machine.StH:
		if tg := tt.tag(in.Rs1); tg != 0 {
			if err := c.epochCheck(c.Reg(in.Rs1)+c.Src2(in), tg); err != nil {
				return err
			}
		}
	}
	switch in.Op {
	case machine.Mov:
		if in.HasImm {
			tt.SetTag(in.Rd, 0)
		} else {
			tt.SetTag(in.Rd, tt.tag(in.Rs1))
		}
	case machine.Add:
		// Pointer arithmetic: pointer + untagged offset keeps the pointer's
		// provenance; anything else (two tags, no tags) is unknown.
		t1, t2 := tt.tag(in.Rs1), uint32(0)
		if !in.HasImm {
			t2 = tt.tag(in.Rs2)
		}
		switch {
		case t1 != 0 && t2 == 0:
			tt.SetTag(in.Rd, t1)
		case t2 != 0 && t1 == 0:
			tt.SetTag(in.Rd, t2)
		default:
			tt.SetTag(in.Rd, 0)
		}
	case machine.Sub:
		t2 := uint32(0)
		if !in.HasImm {
			t2 = tt.tag(in.Rs2)
		}
		if t2 == 0 {
			tt.SetTag(in.Rd, tt.tag(in.Rs1))
		} else {
			tt.SetTag(in.Rd, 0) // pointer difference: an integer
		}
	case machine.Ld:
		tt.SetTag(in.Rd, tt.memTag(c.Reg(in.Rs1)+c.Src2(in)))
	case machine.LdSP:
		tt.SetTag(in.Rd, tt.memTag(c.SP+uint32(in.Imm)))
	case machine.St:
		tt.setMemTag(c.Reg(in.Rs1)+c.Src2(in), tt.tag(in.Rd))
	case machine.StSP, machine.Arg:
		tt.setMemTag(c.SP+uint32(in.Imm), tt.tag(in.Rd))
	case machine.StB, machine.StH:
		// A sub-word store clobbers part of the word: tag unknown.
		tt.setMemTag(c.Reg(in.Rs1)+c.Src2(in), 0)
	case machine.KeepLive:
		tt.SetTag(in.Rd, tt.tag(in.Rs1))
	case machine.Ret:
		tt.RetTag = tt.tag(in.Rs1)
	case machine.Jmp, machine.Bz, machine.Bnz, machine.Nop, machine.Label,
		machine.AdjSP, machine.Call, machine.CallR:
		// No general-purpose destination is written here; Call results are
		// tagged at the call-return sites.
	default:
		// Every other opcode (byte/half loads, mul/div, logic, shifts,
		// compares, LeaSP) computes a non-pointer or non-heap value.
		tt.SetTag(in.Rd, 0)
	}
	return nil
}

// epochCheck validates one access at addr through a pointer tagged with
// epoch tag. Outside the heap nothing is checked (the tag may have flowed
// into an address computation that left the heap; the spatial checker owns
// that case).
func (c *Machine) epochCheck(addr uint32, tag uint32) error {
	if !c.heap.Contains(addr) {
		return nil
	}
	base := c.heap.Base(addr)
	if base == 0 {
		return &CheckError{Err: &TemporalError{Addr: addr, Msg: fmt.Sprintf(
			"access at %#x to freed storage (use after free)", addr)}}
	}
	if e := c.heap.EpochOf(base); e != tag {
		return &CheckError{Err: &TemporalError{Addr: addr, Msg: fmt.Sprintf(
			"access at %#x through a stale pointer: object epoch %d, pointer epoch %d (storage recycled)",
			addr, e, tag)}}
	}
	return nil
}

// argTag returns the shadow tag of runtime-call argument i (arguments are
// words at sp+4i), or 0 outside temporal mode.
func (c *Machine) argTag(i int) uint32 {
	if c.TT == nil {
		return 0
	}
	return c.TT.memTag(c.SP + uint32(4*i))
}

// noteAlloc tags an allocation result with its birth epoch and clears any
// shadow tags covering the new object's storage: the address may have been
// recycled from a freed object whose stale word tags must not leak into its
// next life.
func (c *Machine) noteAlloc(a uint32) {
	tt := c.TT
	tt.RetTag = c.heap.EpochOf(a)
	if a == 0 {
		return
	}
	size := c.heap.ObjectSize(a)
	for w := a &^ 3; w < a+size; w += 4 {
		delete(tt.memTags, w)
	}
}

// gcFree implements the GC_free builtin, the real deallocator of temporal
// mode: the object's epoch is retired, its storage poisoned and recycled.
// Freeing something that is not a live object — null excepted — is itself a
// temporal violation (double free / wild free), as is freeing through a
// pointer whose epoch no longer matches the object at its target.
func (c *Machine) gcFree(p uint32) (uint32, error) {
	if p == 0 {
		return 0, nil
	}
	base := c.heap.Base(p)
	if base == 0 {
		return 0, &CheckError{Err: &TemporalError{Addr: p, Msg: fmt.Sprintf(
			"free of %#x, which is not inside any live object (double free or wild free)", p)}}
	}
	if tg := c.argTag(0); tg != 0 && tg != c.heap.EpochOf(base) {
		return 0, &CheckError{Err: &TemporalError{Addr: p, Msg: fmt.Sprintf(
			"free of %#x through a stale pointer (storage recycled)", p)}}
	}
	if err := c.heap.Free(base); err != nil {
		return 0, err
	}
	return 0, nil
}

// temporalSameObj is the temporal extension of GC_same_obj: beyond the
// spatial same-object test, both operands are checked against the epoch
// they were derived with, so a checked pointer whose object was reclaimed
// and recycled since the derivation fails here even though the spatial
// check — whose base lookup now sees nothing, or a different object — would
// pass vacuously.
func (c *Machine) temporalSameObj(p, q uint32) error {
	if tg := c.argTag(0); tg != 0 {
		if err := c.epochCheck(p, tg); err != nil {
			return err
		}
	}
	if tg := c.argTag(1); tg != 0 {
		if err := c.epochCheck(q, tg); err != nil {
			return err
		}
	}
	return nil
}
