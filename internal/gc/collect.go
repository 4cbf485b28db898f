package gc

import (
	"bytes"
	"encoding/binary"
	"math/bits"
)

// ObjectBase maps an arbitrary address to the base address of the allocated
// heap object containing it, or 0 if a does not point into any live object.
// This is the paper's GC_base: interior pointers — addresses anywhere inside
// an object, including the extra byte past the requested end — resolve to
// the object, exactly as the collector's default configuration promises.
func (h *Heap) ObjectBase(a Addr) Addr {
	ph := h.header(a)
	if ph == nil {
		return 0
	}
	if ph.large {
		if a >= ph.base && a < ph.base+ph.spanLen && ph.allocBit(0) {
			return ph.base
		}
		return 0
	}
	off := a - ph.base
	idx := off / ph.objSize
	if idx >= ph.nobj || !ph.allocBit(idx) {
		return 0
	}
	return ph.base + idx*ph.objSize
}

// ObjectSize returns the rounded size in bytes of the live object whose base
// address is given, or 0 if base is not the base of a live object.
func (h *Heap) ObjectSize(base Addr) uint32 {
	ph := h.header(base)
	if ph == nil {
		return 0
	}
	if ph.large {
		if base == ph.base && ph.allocBit(0) {
			return ph.objSize
		}
		return 0
	}
	off := base - ph.base
	if off%ph.objSize != 0 {
		return 0
	}
	idx := off / ph.objSize
	if idx >= ph.nobj || !ph.allocBit(idx) {
		return 0
	}
	return ph.objSize
}

// markItem is one pending entry of the mark stack: the object's base
// address together with its page header, so draining never re-walks the
// page tree to rediscover what the push already resolved.
type markItem struct {
	base Addr
	ph   *pageHeader
}

// markStackMaxCap bounds the mark-stack backing array retained across
// collections: the array is reused collection to collection (no steady-state
// allocation), but one pathologically deep object graph must not pin a huge
// buffer for the rest of the heap's life.
const markStackMaxCap = 1 << 15

// Collect performs a full stop-the-world mark-sweep collection, scanning the
// roots supplied by the installed RootScanner and then, transitively, every
// word of every reached object (the heap is untyped, so scanning is fully
// conservative).
func (h *Heap) Collect() {
	if h.roots == nil || h.collecting {
		return
	}
	h.collecting = true
	defer func() { h.collecting = false }()
	if h.cfg.Inject != nil {
		// A collection cannot fail; the point exists for latency injection.
		_ = h.cfg.Inject("gc.collect")
	}

	for _, ph := range h.pages {
		// Pages with no allocated objects, and pages whose mark bitmap is
		// already clean (freshly carved or first-ever collection), have
		// nothing to clear.
		if ph.allocated == 0 || !ph.anyMarked {
			h.stats.MarkClearsSkipped++
			continue
		}
		ph.clearMarks()
	}
	h.markStack = h.markStack[:0]
	h.roots.ScanRoots(h.markAddr)
	h.drainMarkStack()
	h.sweep()
	h.sinceGC = 0
	h.stats.Collections++
	if cap(h.markStack) > markStackMaxCap {
		h.markStack = nil
	}
}

// markAddr treats w conservatively as a potential pointer: if it resolves to
// a live, not-yet-marked object, the object is marked and queued for
// scanning.
func (h *Heap) markAddr(w Addr) {
	ph := h.header(w)
	if ph == nil {
		return
	}
	var idx uint32
	if ph.large {
		if w < ph.base || w >= ph.base+ph.spanLen {
			return
		}
		idx = 0
	} else {
		idx = (w - ph.base) / ph.objSize
		if idx >= ph.nobj {
			return
		}
	}
	if !ph.allocBit(idx) || ph.markBit(idx) {
		return
	}
	ph.setMark(idx)
	h.markStack = append(h.markStack, markItem{base: ph.base + idx*ph.objSize, ph: ph})
}

func (h *Heap) drainMarkStack() {
	baseOnly := h.cfg.BaseOnlyHeapPointers
	for len(h.markStack) > 0 {
		it := h.markStack[len(h.markStack)-1]
		h.markStack = h.markStack[:len(h.markStack)-1]
		// The popped item carries its page header, so the object's size is
		// one field read — no page-tree walk, no ObjectSize re-resolution.
		size := it.ph.objSize
		off := it.base - HeapBase
		if int(off)+int(size) > len(h.arena) {
			// Cannot happen for a live object; guard rather than panic.
			continue
		}
		h.scanWords(h.arena[off:off+size], baseOnly)
	}
}

// MarkSegment marks every object referenced, interior pointers included, by
// a word of seg: the words are read little-endian at seg's 4-byte
// boundaries, as the simulated machine stores them. It is the bulk form of
// the visit function Collect hands to ScanRoots, for roots that live in
// contiguous memory (a stack, a static data segment), and may be called
// only from inside ScanRoots; anywhere else it does nothing.
func (h *Heap) MarkSegment(seg []byte) {
	if h.collecting {
		h.scanWords(seg, false)
	}
}

// scanWords marks every heap object a word of b refers to: any word inside
// the object, or under baseOnly only its base address. The range test is
// one unsigned compare (words below HeapBase wrap past the span), so the
// non-pointer words that fill stacks and objects never reach markAddr.
func (h *Heap) scanWords(b []byte, baseOnly bool) {
	span := h.limit - HeapBase
	for ; len(b) >= WordSize; b = b[WordSize:] {
		w := binary.LittleEndian.Uint32(b)
		switch {
		case w-HeapBase >= span:
		case baseOnly:
			h.markBaseOnly(w)
		default:
			h.markAddr(w)
		}
	}
}

// sweep reclaims every allocated-but-unmarked object. Small-object pages
// that become entirely empty are returned to the free-page pool; otherwise
// freed slots rejoin their size-class free list. When Config.Poison is set,
// reclaimed memory is filled with PoisonByte so that a GC-unsafe program
// touching a prematurely collected object reads recognizably dead data.
//
// The bitmaps are processed 64 slots at a time. Every free slot of a kept
// page (every slot whose mark bit is clear) is pushed on its class list in
// page order, then ascending slot order, so the lists — heads and link
// words alike — are exactly what a slot-at-a-time sweep would thread.
func (h *Heap) sweep() {
	var liveObj, liveBytes uint64
	// The per-class free lists are rebuilt from scratch: threading freed
	// objects while stale list links still point into reclaimed pages would
	// corrupt the lists.
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
					h.poison(ph.base, ph.objSize)
				}
			}
			h.releaseSpan(ph)
			continue
		}
		var liveHere uint32
		for _, m := range ph.mark {
			liveHere += uint32(bits.OnesCount64(m))
		}
		h.freeSlots(ph)
		if liveHere == 0 {
			h.releaseSpan(ph)
			continue
		}
		liveObj += uint64(liveHere)
		liveBytes += uint64(liveHere) * uint64(ph.objSize)
		kept = append(kept, ph)
		h.rethread(ph)
	}
	h.pages = kept
	h.stats.LiveObjects = liveObj
	h.stats.LiveBytes = liveBytes
}

// freeSlots reclaims the allocated-but-unmarked slots of a small-object
// page: their alloc bits drop, their bytes count as freed and, under
// Config.Poison, their memory is poisoned.
func (h *Heap) freeSlots(ph *pageHeader) {
	for wi, m := range ph.mark {
		freed := ph.alloc[wi] &^ m
		if freed == 0 {
			continue
		}
		n := uint32(bits.OnesCount64(freed))
		ph.alloc[wi] &^= freed
		ph.allocated -= n
		h.stats.ObjectsFreed += uint64(n)
		h.stats.BytesFreed += uint64(n) * uint64(ph.objSize)
		if h.cfg.Poison {
			for ; freed != 0; freed &= freed - 1 {
				i := uint32(wi*64 + bits.TrailingZeros64(freed))
				h.poison(ph.base+i*ph.objSize, ph.objSize)
			}
		}
	}
}

// rethread pushes every unmarked slot of a kept small-object page onto its
// class free list, in ascending slot order.
func (h *Heap) rethread(ph *pageHeader) {
	class := ph.objSize / Granule
	head := h.freeLists[class]
	page := h.arena[ph.base-HeapBase:][:PageSize]
	for wi, m := range ph.mark {
		free := ^m
		if rest := ph.nobj - uint32(wi*64); rest < 64 {
			free &= 1<<rest - 1
		}
		for ; free != 0; free &= free - 1 {
			off := uint32(wi*64+bits.TrailingZeros64(free)) * ph.objSize
			binary.LittleEndian.PutUint32(page[off:], head)
			head = ph.base + off
		}
	}
	h.freeLists[class] = head
}

// releaseSpan unmaps a header's pages and returns them to the free pool.
func (h *Heap) releaseSpan(ph *pageHeader) {
	first := (ph.base - HeapBase) / PageSize
	npages := uint32(1)
	if ph.large {
		npages = ph.spanLen / PageSize
	}
	for p := first; p < first+npages; p++ {
		h.setHeader(p, nil)
	}
	h.freeSpans = append(h.freeSpans, span{page: first, npages: npages})
}

// poisonFill is the source poison copies from: one page of PoisonByte.
var poisonFill = bytes.Repeat([]byte{PoisonByte}, PageSize)

func (h *Heap) poison(a Addr, n uint32) {
	for b := h.arena[a-HeapBase:][:n]; len(b) > 0; {
		b = b[copy(b, poisonFill):]
	}
}
