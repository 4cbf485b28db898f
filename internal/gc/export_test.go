package gc

// Test-only entry points for the collector benchmarks (package gc_test):
// a deep heap copy, so every benchmark iteration starts from the same
// state, and the collection phases one at a time.

// Clone returns a deep copy of h: arena, page tree, headers, free lists,
// spans, statistics and pending mark stack. The copy keeps h's root
// scanner; install its own with SetRoots.
func (h *Heap) Clone() *Heap {
	c := *h
	c.arena = append([]byte(nil), h.arena...)
	c.cachePage, c.cacheHdr = 0, nil
	hdr := make(map[*pageHeader]*pageHeader, len(h.pages))
	dup := func(ph *pageHeader) *pageHeader {
		if ph == nil {
			return nil
		}
		if d, ok := hdr[ph]; ok {
			return d
		}
		d := *ph
		d.mark = append([]uint64(nil), ph.mark...)
		d.alloc = append([]uint64(nil), ph.alloc...)
		d.epochs = append([]uint32(nil), ph.epochs...)
		hdr[ph] = &d
		return &d
	}
	c.pages = make([]*pageHeader, len(h.pages))
	for i, ph := range h.pages {
		c.pages[i] = dup(ph)
	}
	c.tree = make([]*[1 << bottomBits]*pageHeader, len(h.tree))
	for i, bottom := range h.tree {
		if bottom == nil {
			continue
		}
		nb := new([1 << bottomBits]*pageHeader)
		for j, ph := range bottom {
			nb[j] = dup(ph)
		}
		c.tree[i] = nb
	}
	c.freeSpans = append([]span(nil), h.freeSpans...)
	c.markStack = make([]markItem, len(h.markStack))
	for i, it := range h.markStack {
		c.markStack[i] = markItem{base: it.base, ph: dup(it.ph)}
	}
	return &c
}

// BeginCollect is the start of Collect: the heap enters its collecting
// state, mark bitmaps are cleared and the mark stack emptied.
func (h *Heap) BeginCollect() {
	h.collecting = true
	for _, ph := range h.pages {
		if ph.allocated != 0 && ph.anyMarked {
			ph.clearMarks()
		}
	}
	h.markStack = h.markStack[:0]
}

// MarkRoots marks from the installed root scanner (mark stack left full).
func (h *Heap) MarkRoots() { h.roots.ScanRoots(h.markAddr) }

// DrainMarks marks everything reachable from the mark stack.
func (h *Heap) DrainMarks() { h.drainMarkStack() }

// Sweep runs the sweep phase over the current mark bitmaps.
func (h *Heap) Sweep() { h.sweep() }
