package interp

import (
	"fmt"

	"gcsafety/internal/machine"
)

// The native runtime library. These functions model the paper's
// unpreprocessed standard library ("the critical pieces are likely to be
// either hand assembly coded, or manually checked for GC-safety"): they
// execute natively, charging a nominal cycle cost, and are GC-safe by
// construction.

// Nominal runtime costs (cycles).
const (
	rtBase    = 8  // fixed dispatch/prologue cost of any runtime routine
	rtPerByte = 1  // per-byte cost of string/memory routines
	rtAlloc   = 40 // allocator fast-path cost
	rtCheck   = 12 // GC_same_obj page-tree lookup cost
)

func (c *Machine) arg(i int) (uint32, error) {
	return c.Read32(c.SP + uint32(4*i))
}

// RuntimeCall takes the Call instruction itself (plus the caller's name)
// rather than an unpacked symbol/arity so the allocation-site capture can
// live here, off the dispatch loop's critical path: by the time we are in
// this function a real call has already been paid for, so the c.prof
// nil-check below is noise, whereas the same check in a dispatch loop's
// Call case measurably perturbs the tuned throughput.
func (c *Machine) RuntimeCall(fnName string, in *machine.Instr) (uint32, error) {
	if c.prof != nil {
		c.prof.pendFn, c.prof.pendLine = fnName, in.Line
	}
	sym, nargs := in.Sym, int(in.Imm)
	var args []uint32
	if nargs > len(c.argbuf) {
		args = make([]uint32, nargs)
	} else {
		args = c.argbuf[:nargs]
	}
	for i := range args {
		v, err := c.arg(i)
		if err != nil {
			return 0, err
		}
		args[i] = v
	}
	a := func(i int) uint32 {
		if i < len(args) {
			return args[i]
		}
		return 0
	}
	c.RuntimeCycles += rtBase
	if c.TT != nil {
		// Runtime results are untagged unless a case below says otherwise.
		c.TT.RetTag = 0
	}
	switch sym {
	case "malloc", "GC_malloc":
		c.RuntimeCycles += rtAlloc
		p, err := c.alloc(a(0))
		if err == nil && c.TT != nil {
			c.noteAlloc(p)
		}
		if err == nil && c.prof != nil {
			c.noteSite(p, "malloc")
		}
		return p, err
	case "calloc":
		c.RuntimeCycles += rtAlloc
		p, err := c.alloc(a(0) * a(1))
		if err == nil && c.TT != nil {
			c.noteAlloc(p)
		}
		if err == nil && c.prof != nil {
			c.noteSite(p, "calloc")
		}
		return p, err
	case "realloc":
		c.RuntimeCycles += rtAlloc
		p, err := c.realloc(a(0), a(1))
		if err == nil && c.TT != nil {
			c.noteAlloc(p)
		}
		if err == nil && c.prof != nil {
			c.noteSite(p, "realloc")
		}
		return p, err
	case "free":
		// The paper's methodology: "remove all calls to free". Temporal
		// mode rewrites free to GC_free at annotation time instead.
		return 0, nil
	case "GC_free":
		// The temporal mode's real deallocator (see temporal.go).
		c.RuntimeCycles += rtAlloc
		return c.gcFree(a(0))
	case "join_threads":
		// Blocks (by scheduler retry) until every sibling thread finished;
		// immediately returns 0 in single-thread mode.
		if c.threadsRemaining() {
			return 0, errJoinWait
		}
		return 0, nil
	case "GC_gcollect":
		c.heap.Collect()
		return 0, nil
	case "GC_base":
		c.RuntimeCycles += rtCheck
		b := c.heap.Base(a(0))
		if c.TT != nil {
			c.TT.RetTag = c.heap.EpochOf(b)
		}
		return b, nil
	case "GC_same_obj":
		c.RuntimeCycles += rtCheck
		if c.TT != nil {
			if err := c.temporalSameObj(a(0), a(1)); err != nil {
				return 0, err
			}
			c.TT.RetTag = c.argTag(0)
		}
		p, err := c.heap.SameObject(a(0), a(1))
		if err != nil {
			return 0, &CheckError{Err: err}
		}
		return p, nil
	case "GC_pre_incr":
		c.RuntimeCycles += rtCheck + 4
		return c.gcIncr(a(0), int32(a(1)), false)
	case "GC_post_incr":
		c.RuntimeCycles += rtCheck + 4
		return c.gcIncr(a(0), int32(a(1)), true)
	case "KEEP_LIVE":
		// The paper's portable fallback: "a call to an external function
		// whose implementation is unavailable to the compiler for
		// analysis, but which actually just returns its first argument."
		if c.TT != nil {
			c.TT.RetTag = c.argTag(0)
		}
		return a(0), nil
	case "strlen":
		s, err := c.cstring(a(0))
		if err != nil {
			return 0, err
		}
		c.RuntimeCycles += uint64(len(s)) * rtPerByte
		return uint32(len(s)), nil
	case "strcpy":
		if c.TT != nil {
			c.TT.RetTag = c.argTag(0)
		}
		return c.strcpy(a(0), a(1), 1<<30, true)
	case "strncpy":
		if c.TT != nil {
			c.TT.RetTag = c.argTag(0)
		}
		return c.strcpy(a(0), a(1), a(2), true)
	case "strcat":
		s, err := c.cstring(a(0))
		if err != nil {
			return 0, err
		}
		c.RuntimeCycles += uint64(len(s)) * rtPerByte
		if _, err := c.strcpy(a(0)+uint32(len(s)), a(1), 1<<30, true); err != nil {
			return 0, err
		}
		if c.TT != nil {
			c.TT.RetTag = c.argTag(0)
		}
		return a(0), nil
	case "strcmp":
		return c.strcmp(a(0), a(1), 1<<30)
	case "strncmp":
		return c.strcmp(a(0), a(1), a(2))
	case "strchr":
		s, err := c.cstring(a(0))
		if err != nil {
			return 0, err
		}
		c.RuntimeCycles += uint64(len(s)) * rtPerByte
		for i := 0; i <= len(s); i++ {
			var ch byte
			if i < len(s) {
				ch = s[i]
			}
			if ch == byte(a(1)) {
				if c.TT != nil {
					c.TT.RetTag = c.argTag(0)
				}
				return a(0) + uint32(i), nil
			}
		}
		return 0, nil
	case "memcpy", "memmove":
		if c.TT != nil {
			c.TT.RetTag = c.argTag(0)
		}
		return c.memmove(a(0), a(1), a(2))
	case "memset":
		if c.TT != nil {
			c.TT.RetTag = c.argTag(0)
		}
		c.RuntimeCycles += uint64(a(2)) * rtPerByte
		for i := uint32(0); i < a(2); i++ {
			if err := c.write8(a(0)+i, byte(a(1))); err != nil {
				return 0, err
			}
		}
		return a(0), nil
	case "memcmp":
		c.RuntimeCycles += uint64(a(2)) * rtPerByte
		for i := uint32(0); i < a(2); i++ {
			x, err := c.read8(a(0) + i)
			if err != nil {
				return 0, err
			}
			y, err := c.read8(a(1) + i)
			if err != nil {
				return 0, err
			}
			if x != y {
				if x < y {
					return uint32(0xFFFFFFFF), nil
				}
				return 1, nil
			}
		}
		return 0, nil
	case "putchar":
		c.out.WriteByte(byte(a(0)))
		return a(0), nil
	case "puts":
		s, err := c.cstring(a(0))
		if err != nil {
			return 0, err
		}
		c.out.WriteString(s)
		c.out.WriteByte('\n')
		return 0, nil
	case "print_str":
		s, err := c.cstring(a(0))
		if err != nil {
			return 0, err
		}
		c.out.WriteString(s)
		return 0, nil
	case "print_int":
		fmt.Fprintf(&c.out, "%d", int32(a(0)))
		return 0, nil
	case "getchar":
		if c.in >= len(c.Opts.Input) {
			return uint32(0xFFFFFFFF), nil // EOF
		}
		ch := c.Opts.Input[c.in]
		c.in++
		return uint32(ch), nil
	case "exit":
		c.Exited = true
		c.exit = int32(a(0))
		return 0, nil
	case "abort":
		return 0, fmt.Errorf("abort() called")
	case "assert_true":
		if a(0) == 0 {
			return 0, fmt.Errorf("assertion failed")
		}
		return 0, nil
	case "rand_next":
		// xorshift32: deterministic workload driver
		x := c.rng
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		c.rng = x
		return x, nil
	}
	return 0, fmt.Errorf("call to undefined function %q", sym)
}

func (c *Machine) alloc(n uint32) (uint32, error) {
	a, err := c.heap.Alloc(n)
	if err != nil {
		return 0, err
	}
	return a, nil
}

func (c *Machine) realloc(p, n uint32) (uint32, error) {
	if p == 0 {
		return c.alloc(n)
	}
	na, err := c.alloc(n)
	if err != nil {
		return 0, err
	}
	old := c.heap.ObjectSize(c.heap.Base(p))
	cp := old
	if n < cp {
		cp = n
	}
	if _, err := c.memmove(na, p, cp); err != nil {
		return 0, err
	}
	return na, nil
}

func (c *Machine) gcIncr(slot uint32, delta int32, post bool) (uint32, error) {
	old, err := c.Read32(slot)
	if err != nil {
		return 0, err
	}
	nw := uint32(int64(old) + int64(delta))
	if err := c.Write32(slot, nw); err != nil {
		return 0, err
	}
	if c.TT != nil {
		// The pointer variable's stored tag survives the in-place update
		// and checks the moved pointer against its birth epoch.
		if tg := c.TT.memTag(slot); tg != 0 {
			if err := c.epochCheck(old, tg); err != nil {
				return 0, err
			}
		}
		c.TT.RetTag = c.TT.memTag(slot)
	}
	if _, err := c.heap.SameObject(nw, old); err != nil {
		return 0, &CheckError{Err: err}
	}
	if post {
		return old, nil
	}
	return nw, nil
}

func (c *Machine) strcpy(dst, src, max uint32, nulTerm bool) (uint32, error) {
	var i uint32
	for i = 0; i < max; i++ {
		ch, err := c.read8(src + i)
		if err != nil {
			return 0, err
		}
		if err := c.write8(dst+i, ch); err != nil {
			return 0, err
		}
		c.RuntimeCycles += rtPerByte
		if ch == 0 {
			break
		}
	}
	return dst, nil
}

func (c *Machine) strcmp(p, q, max uint32) (uint32, error) {
	for i := uint32(0); i < max; i++ {
		x, err := c.read8(p + i)
		if err != nil {
			return 0, err
		}
		y, err := c.read8(q + i)
		if err != nil {
			return 0, err
		}
		c.RuntimeCycles += rtPerByte
		if x != y {
			if x < y {
				return uint32(0xFFFFFFFF), nil
			}
			return 1, nil
		}
		if x == 0 {
			return 0, nil
		}
	}
	return 0, nil
}

func (c *Machine) memmove(dst, src, n uint32) (uint32, error) {
	c.RuntimeCycles += uint64(n) * rtPerByte
	if dst < src {
		for i := uint32(0); i < n; i++ {
			ch, err := c.read8(src + i)
			if err != nil {
				return 0, err
			}
			if err := c.write8(dst+i, ch); err != nil {
				return 0, err
			}
		}
	} else {
		for i := n; i > 0; i-- {
			ch, err := c.read8(src + i - 1)
			if err != nil {
				return 0, err
			}
			if err := c.write8(dst+i-1, ch); err != nil {
				return 0, err
			}
		}
	}
	return dst, nil
}

var _ = machine.NoReg
