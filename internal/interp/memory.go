package interp

import (
	"fmt"

	"gcsafety/internal/machine"
)

// Simulated memory map:
//
//	0x00002000 .. : static data segment (GC roots, scanned)
//	0x10000000 .. : collected heap (internal/gc)
//	0x3ff00000 .. 0x40000000 : stack, grows down (GC roots, scanned);
//	                           materialized on demand from the top
//
// The host backs only the stack's materialized part, [stackBase,
// StackTop): one page at first, doubled by growStack whenever AdjSP moves
// a stack pointer below it, runThreads places a worker's segment below
// it, or an access lands in [StackLimit, stackBase). The map, fault
// addresses and fault messages are those of a fully backed stack.

// stackPage is the stack's initial materialized size.
const stackPage = 4 << 10

func (c *Machine) inStatic(a uint32) bool {
	return a >= machine.DataBase && a < machine.DataBase+uint32(len(c.static))
}

// inStack reports whether a lies in the materialized stack: the stack
// fast path is this one compare.
func (c *Machine) inStack(a uint32) bool {
	return a-c.stackBase < uint32(len(c.stack))
}

// inStackReserve reports whether a lies in the stack but below its
// materialized part.
func (c *Machine) inStackReserve(a uint32) bool {
	return a >= machine.StackLimit && a < c.stackBase
}

// growStack materializes the stack down to a (StackLimit <= a), doubling
// the backing slice until it covers a and copying the old contents to the
// top. The new bytes are zero, as untouched stack always reads.
func (c *Machine) growStack(a uint32) {
	if a >= c.stackBase {
		return
	}
	n := uint32(len(c.stack))
	for machine.StackTop-n > a {
		n *= 2
	}
	grown := make([]byte, n)
	copy(grown[n-uint32(len(c.stack)):], c.stack)
	c.stack = grown
	c.stackBase = machine.StackTop - n
}

// validate runs the premature-reclamation detector on heap accesses.
func (c *Machine) validate(a uint32, size uint32) error {
	if !c.Opts.Validate {
		return nil
	}
	return c.heap.ValidateAccess(a, size)
}

func (c *Machine) read32raw(a uint32) (uint32, error) {
	// The stack is checked first: frame traffic (locals, spills, arguments)
	// dominates the access mix of every workload.
	switch {
	case c.inStack(a):
		s := c.stack[a-c.stackBase:]
		return uint32(s[0]) | uint32(s[1])<<8 | uint32(s[2])<<16 | uint32(s[3])<<24, nil
	case c.inStatic(a):
		off := a - machine.DataBase
		if int(off)+4 > len(c.static) {
			return 0, fmt.Errorf("static read past segment at %#x", a)
		}
		s := c.static[off:]
		return uint32(s[0]) | uint32(s[1])<<8 | uint32(s[2])<<16 | uint32(s[3])<<24, nil
	case c.heap.Contains(a):
		return c.heap.ReadWord(a)
	case c.inStackReserve(a):
		c.growStack(a)
		return c.read32raw(a)
	}
	return 0, fmt.Errorf("read of unmapped address %#x", a)
}

// Read32 loads an aligned word from any segment, running the access
// validator on heap addresses.
func (c *Machine) Read32(a uint32) (uint32, error) {
	if a%4 != 0 {
		return 0, fmt.Errorf("misaligned word read at %#x", a)
	}
	if c.heap.Contains(a) {
		if err := c.validate(a, 4); err != nil {
			return 0, err
		}
		return c.heap.ReadWord(a)
	}
	return c.read32raw(a)
}

// Write32 stores an aligned word to any segment, running the access
// validator on heap addresses.
func (c *Machine) Write32(a, v uint32) error {
	if a%4 != 0 {
		return fmt.Errorf("misaligned word write at %#x", a)
	}
	switch {
	case c.inStack(a):
		off := a - c.stackBase
		c.stack[off] = byte(v)
		c.stack[off+1] = byte(v >> 8)
		c.stack[off+2] = byte(v >> 16)
		c.stack[off+3] = byte(v >> 24)
		return nil
	case c.inStatic(a):
		off := a - machine.DataBase
		if int(off)+4 > len(c.static) {
			return fmt.Errorf("static write past segment at %#x", a)
		}
		c.static[off] = byte(v)
		c.static[off+1] = byte(v >> 8)
		c.static[off+2] = byte(v >> 16)
		c.static[off+3] = byte(v >> 24)
		return nil
	case c.heap.Contains(a):
		if err := c.validate(a, 4); err != nil {
			return err
		}
		return c.heap.WriteWord(a, v)
	case c.inStackReserve(a):
		c.growStack(a)
		return c.Write32(a, v)
	}
	return fmt.Errorf("write to unmapped address %#x", a)
}

func (c *Machine) read8(a uint32) (byte, error) {
	switch {
	case c.inStatic(a):
		return c.static[a-machine.DataBase], nil
	case c.inStack(a):
		return c.stack[a-c.stackBase], nil
	case c.heap.Contains(a):
		if err := c.validate(a, 1); err != nil {
			return 0, err
		}
		return c.heap.ReadByteAt(a)
	case c.inStackReserve(a):
		c.growStack(a)
		return c.read8(a)
	}
	return 0, fmt.Errorf("read of unmapped address %#x", a)
}

func (c *Machine) write8(a uint32, v byte) error {
	switch {
	case c.inStatic(a):
		c.static[a-machine.DataBase] = v
		return nil
	case c.inStack(a):
		c.stack[a-c.stackBase] = v
		return nil
	case c.heap.Contains(a):
		if err := c.validate(a, 1); err != nil {
			return err
		}
		return c.heap.WriteByteAt(a, v)
	case c.inStackReserve(a):
		c.growStack(a)
		return c.write8(a, v)
	}
	return fmt.Errorf("write to unmapped address %#x", a)
}

func (c *Machine) read16(a uint32) (uint16, error) {
	if a%2 != 0 {
		return 0, fmt.Errorf("misaligned halfword read at %#x", a)
	}
	lo, err := c.read8(a)
	if err != nil {
		return 0, err
	}
	hi, err := c.read8(a + 1)
	if err != nil {
		return 0, err
	}
	return uint16(lo) | uint16(hi)<<8, nil
}

func (c *Machine) write16(a uint32, v uint16) error {
	if a%2 != 0 {
		return fmt.Errorf("misaligned halfword write at %#x", a)
	}
	if err := c.write8(a, byte(v)); err != nil {
		return err
	}
	return c.write8(a+1, byte(v>>8))
}

// cstring reads a NUL-terminated string (bounded) for runtime helpers.
func (c *Machine) cstring(a uint32) (string, error) {
	var b []byte
	for i := 0; i < 1<<20; i++ {
		ch, err := c.read8(a + uint32(i))
		if err != nil {
			return "", err
		}
		if ch == 0 {
			return string(b), nil
		}
		b = append(b, ch)
	}
	return "", fmt.Errorf("unterminated string at %#x", a)
}
