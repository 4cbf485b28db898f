package interp

import "gcsafety/internal/machine"

// Frame is one activation record on a simulated thread's call stack.
type Frame struct {
	Fn      *machine.Func
	PC      int
	SavedSP uint32
	RetReg  machine.Reg
	// Meta is Fn's precomputed metadata; every push sets it.
	Meta *FuncMeta
}

// FuncMeta is per-function metadata precomputed by New so the dispatch
// loop never consults a map per instruction: Targets holds
// the resolved destination pc for every Jmp/Bz/Bnz (aligned with Code),
// Callees the resolved *Func for every direct Call into program code (nil
// for runtime builtins, which dispatch by name), and CalleeMeta the
// callee's own FuncMeta, so pushing a frame needs no map lookup either.
type FuncMeta struct {
	Targets    []int
	Callees    []*machine.Func
	CalleeMeta []*FuncMeta
}
