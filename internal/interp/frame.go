package interp

import "gcsafety/internal/machine"

// Frame is one activation record on a simulated call stack: the dispatch
// loop and the concurrent scheduler keep a []Frame, and the cold-path Step
// pushes Frames for calls.
type Frame struct {
	Fn      *machine.Func
	PC      int
	SavedSP uint32
	RetReg  machine.Reg
	// Meta caches MetaOf(Fn); frames pushed by the cold path leave it nil
	// and the dispatch loop fills it in on first activation.
	Meta *FuncMeta
}

// FuncMeta is per-function metadata precomputed by New so
// hot dispatch loops never consult a map per instruction: Targets holds
// the resolved destination pc for every Jmp/Bz/Bnz (aligned with Code),
// Callees the resolved *Func for every direct Call into program code (nil
// for runtime builtins, which dispatch by name), and CalleeMeta the
// callee's own FuncMeta, so pushing a frame needs no map lookup either.
type FuncMeta struct {
	Targets    []int
	Callees    []*machine.Func
	CalleeMeta []*FuncMeta
}

// MetaOf returns the precomputed metadata for a program function (nil for
// functions outside the program the machine was built for).
func (c *Machine) MetaOf(fn *machine.Func) *FuncMeta { return c.meta[fn] }
