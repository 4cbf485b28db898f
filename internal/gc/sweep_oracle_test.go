package gc

import (
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"
)

// The slot-at-a-time collector this package shipped before its inner loops
// went word-at-a-time, kept as the oracle the production collector must
// match byte for byte: same arena, same free lists, same bitmaps, same
// statistics. Only the ref* functions below are the reference; allocation,
// page management and the per-word mark step (markAddr, markBaseOnly) are
// shared.

// refCollect is Collect with the reference mark drain and sweep.
func (h *Heap) refCollect() {
	h.collecting = true
	defer func() { h.collecting = false }()
	for _, ph := range h.pages {
		if ph.allocated == 0 || !ph.anyMarked {
			h.stats.MarkClearsSkipped++
			continue
		}
		ph.clearMarks()
	}
	h.markStack = h.markStack[:0]
	h.roots.ScanRoots(h.markAddr)
	h.refDrain()
	h.refSweep()
	h.sinceGC = 0
	h.stats.Collections++
	if cap(h.markStack) > markStackMaxCap {
		h.markStack = nil
	}
}

func (h *Heap) refDrain() {
	baseOnly := h.cfg.BaseOnlyHeapPointers
	for len(h.markStack) > 0 {
		it := h.markStack[len(h.markStack)-1]
		h.markStack = h.markStack[:len(h.markStack)-1]
		size := it.ph.objSize
		off := it.base - HeapBase
		if int(off)+int(size) > len(h.arena) {
			continue
		}
		obj := h.arena[off : off+size]
		for i := 0; i+WordSize <= len(obj); i += WordSize {
			w := Addr(obj[i]) | Addr(obj[i+1])<<8 | Addr(obj[i+2])<<16 | Addr(obj[i+3])<<24
			if baseOnly {
				h.markBaseOnly(w)
			} else {
				h.markAddr(w)
			}
		}
	}
}

func (h *Heap) refSweep() {
	var liveObj, liveBytes uint64
	for i := range h.freeLists {
		h.freeLists[i] = 0
	}
	kept := h.pages[:0]
	for _, ph := range h.pages {
		if ph.large {
			if ph.markBit(0) {
				liveObj++
				liveBytes += uint64(ph.objSize)
				kept = append(kept, ph)
				continue
			}
			if ph.allocBit(0) {
				h.stats.ObjectsFreed++
				h.stats.BytesFreed += uint64(ph.objSize)
				if h.cfg.Poison {
					h.refPoison(ph.base, ph.objSize)
				}
			}
			h.releaseSpan(ph)
			continue
		}
		var liveHere uint32
		for i := uint32(0); i < ph.nobj; i++ {
			if ph.markBit(i) {
				liveHere++
			}
		}
		if liveHere == 0 {
			for i := uint32(0); i < ph.nobj; i++ {
				if ph.allocBit(i) {
					h.stats.ObjectsFreed++
					h.stats.BytesFreed += uint64(ph.objSize)
					if h.cfg.Poison {
						h.refPoison(ph.base+i*ph.objSize, ph.objSize)
					}
					ph.clearAlloc(i)
				}
			}
			h.releaseSpan(ph)
			continue
		}
		kept = append(kept, ph)
		class := ph.objSize / Granule
		for i := uint32(0); i < ph.nobj; i++ {
			obj := ph.base + i*ph.objSize
			switch {
			case ph.markBit(i):
				liveObj++
				liveBytes += uint64(ph.objSize)
			case ph.allocBit(i):
				h.stats.ObjectsFreed++
				h.stats.BytesFreed += uint64(ph.objSize)
				if h.cfg.Poison {
					h.refPoison(obj, ph.objSize)
				}
				ph.clearAlloc(i)
				h.refSetRawWord(obj, h.freeLists[class])
				h.freeLists[class] = obj
			default:
				h.refSetRawWord(obj, h.freeLists[class])
				h.freeLists[class] = obj
			}
		}
	}
	h.pages = kept
	h.stats.LiveObjects = liveObj
	h.stats.LiveBytes = liveBytes
}

func (h *Heap) refSetRawWord(a Addr, w Addr) {
	off := a - HeapBase
	h.arena[off] = byte(w)
	h.arena[off+1] = byte(w >> 8)
	h.arena[off+2] = byte(w >> 16)
	h.arena[off+3] = byte(w >> 24)
}

func (h *Heap) refPoison(a Addr, n uint32) {
	off := a - HeapBase
	for i := uint32(0); i < n; i++ {
		h.arena[off+i] = PoisonByte
	}
}

// oracleRoots is a root set of register words plus one memory segment.
// The production heap scans the segment through MarkSegment; the
// reference heap decodes it byte by byte and visits every word.
type oracleRoots struct {
	h    *Heap
	ref  bool
	regs []Addr
	seg  []byte
}

func (r *oracleRoots) ScanRoots(visit func(Addr)) {
	for _, w := range r.regs {
		visit(w)
	}
	if !r.ref {
		r.h.MarkSegment(r.seg)
		return
	}
	for i := 0; i+WordSize <= len(r.seg); i += WordSize {
		s := r.seg[i:]
		visit(Addr(s[0]) | Addr(s[1])<<8 | Addr(s[2])<<16 | Addr(s[3])<<24)
	}
}

// heapDiff reports the first difference between two heaps' collector
// state, or "" when they are identical.
func heapDiff(a, b *Heap) string {
	switch {
	case !reflect.DeepEqual(a.arena, b.arena):
		for i := range a.arena {
			if i >= len(b.arena) || a.arena[i] != b.arena[i] {
				return fmt.Sprintf("arena differs at %#x", HeapBase+Addr(i))
			}
		}
		return fmt.Sprintf("arena lengths %d and %d", len(a.arena), len(b.arena))
	case a.freeLists != b.freeLists:
		return fmt.Sprintf("free-list heads differ:\n%v\n%v", a.freeLists, b.freeLists)
	case !reflect.DeepEqual(a.freeSpans, b.freeSpans):
		return fmt.Sprintf("free spans differ: %v vs %v", a.freeSpans, b.freeSpans)
	case a.Stats() != b.Stats():
		return fmt.Sprintf("stats differ:\n%+v\n%+v", a.Stats(), b.Stats())
	case len(a.pages) != len(b.pages):
		return fmt.Sprintf("%d pages vs %d", len(a.pages), len(b.pages))
	}
	for class, head := range a.freeLists {
		if ca, cb := freeChain(a, head), freeChain(b, head); !reflect.DeepEqual(ca, cb) {
			return fmt.Sprintf("class %d free chains differ", class)
		}
	}
	for i, pa := range a.pages {
		pb := b.pages[i]
		if !reflect.DeepEqual(*pa, *pb) {
			return fmt.Sprintf("page %d (%#x) differs:\n%+v\n%+v", i, pa.base, *pa, *pb)
		}
		if a.header(pa.base) != pa || b.header(pb.base) != pb {
			return fmt.Sprintf("page %d (%#x) not reachable through the page tree", i, pa.base)
		}
	}
	return ""
}

// freeChain follows a free list from head.
func freeChain(h *Heap, head Addr) []Addr {
	var chain []Addr
	for a := head; a != 0 && len(chain) <= len(h.arena)/Granule; {
		chain = append(chain, a)
		next, err := h.rawWord(a)
		if err != nil {
			break
		}
		a = next
	}
	return chain
}

// TestSweepMatchesSlotOracle drives the production heap and the
// slot-at-a-time reference through identical randomized scripts —
// allocations from 1 byte to multi-page spans, random pointer stores,
// random root sets (interior pointers and junk words included), explicit
// Free and repeated collections — and after every collection requires the
// two heaps to agree on arena bytes, free lists, bitmaps, page and span
// bookkeeping and statistics.
func TestSweepMatchesSlotOracle(t *testing.T) {
	for _, poison := range []bool{true, false} {
		for _, baseOnly := range []bool{false, true} {
			for seed := uint64(1); seed <= 4; seed++ {
				name := fmt.Sprintf("poison=%v/baseOnly=%v/seed=%d", poison, baseOnly, seed)
				t.Run(name, func(t *testing.T) {
					runOracleScript(t, Config{
						MaxBytes:             4 << 20,
						TriggerBytes:         ^uint32(0),
						Poison:               poison,
						BaseOnlyHeapPointers: baseOnly,
					}, seed)
				})
			}
		}
	}
}

func runOracleScript(t *testing.T, cfg Config, seed uint64) {
	rng := rand.New(rand.NewPCG(seed, 0x5EED))
	prod, ref := NewHeap(cfg), NewHeap(cfg)
	pr := &oracleRoots{h: prod}
	rr := &oracleRoots{h: ref, ref: true}
	prod.SetRoots(pr)
	ref.SetRoots(rr)

	type obj struct {
		base, size, epoch Addr
	}
	var objs []obj
	size := func() uint32 {
		switch r := rng.IntN(20); {
		case r < 14:
			return 1 + rng.Uint32N(64)
		case r < 18:
			return 1 + rng.Uint32N(MaxSmall)
		default:
			return MaxSmall + 1 + rng.Uint32N(3*PageSize)
		}
	}
	// ptr is a random reference to a tracked object: usually its base,
	// sometimes an interior address or one past its end.
	ptr := func() Addr {
		if len(objs) == 0 {
			return 0
		}
		o := objs[rng.IntN(len(objs))]
		switch rng.IntN(4) {
		case 0:
			return o.base + rng.Uint32N(o.size+1)
		default:
			return o.base
		}
	}
	word := func() Addr {
		switch rng.IntN(4) {
		case 0:
			return rng.Uint32()
		case 1:
			return HeapBase + rng.Uint32N(uint32(len(prod.arena))+1)
		default:
			return ptr()
		}
	}
	for collection := 0; collection < 60; collection++ {
		for op := rng.IntN(120); op > 0; op-- {
			switch r := rng.IntN(10); {
			case r < 5:
				n := size()
				a, errA := prod.Alloc(n)
				b, errB := ref.Alloc(n)
				if a != b || (errA == nil) != (errB == nil) {
					t.Fatalf("Alloc(%d) diverged: %#x/%v vs %#x/%v", n, a, errA, b, errB)
				}
				if errA == nil {
					objs = append(objs, obj{a, prod.ObjectSize(a), prod.EpochOf(a)})
				}
			case r < 9 && len(objs) > 0:
				o := objs[rng.IntN(len(objs))]
				at, w := o.base+rng.Uint32N(o.size/WordSize)*WordSize, word()
				if err := prod.WriteWord(at, w); err != nil {
					t.Fatal(err)
				}
				if err := ref.WriteWord(at, w); err != nil {
					t.Fatal(err)
				}
			case len(objs) > 0:
				i := rng.IntN(len(objs))
				errA, errB := prod.Free(objs[i].base), ref.Free(objs[i].base)
				if (errA == nil) != (errB == nil) {
					t.Fatalf("Free(%#x) diverged: %v vs %v", objs[i].base, errA, errB)
				}
				objs = append(objs[:i], objs[i+1:]...)
			}
		}
		regs := make([]Addr, rng.IntN(12))
		for i := range regs {
			regs[i] = word()
		}
		seg := make([]byte, WordSize*rng.IntN(16)+rng.IntN(WordSize))
		for i := 0; i+WordSize <= len(seg); i += WordSize {
			binary.LittleEndian.PutUint32(seg[i:], word())
		}
		pr.regs, pr.seg = regs, seg
		rr.regs, rr.seg = regs, seg
		prod.Collect()
		ref.refCollect()
		if d := heapDiff(prod, ref); d != "" {
			t.Fatalf("after collection %d: %s", collection+1, d)
		}
		// Forget what the collection reclaimed.
		live := objs[:0]
		for _, o := range objs {
			if prod.EpochOf(o.base) == o.epoch {
				live = append(live, o)
			}
		}
		objs = live
	}
	if s := prod.Stats(); s.ObjectsFreed == 0 || s.LiveObjects == 0 {
		t.Fatalf("script exercised too little: %+v", s)
	}
}
