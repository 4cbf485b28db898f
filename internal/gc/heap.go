package gc

import "encoding/binary"

// A pageHeader describes one heap page (or a span of pages for a large
// object). It is the analogue of Boehm's hblkhdr. Small-object pages carve
// the page into nobj objects of objSize bytes each; large objects occupy a
// whole span of pages and every page of the span shares one header.
type pageHeader struct {
	base    Addr // address of the first byte of the page or span
	objSize uint32
	nobj    uint32
	large   bool
	spanLen uint32 // span length in bytes (large objects only)
	mark    []uint64
	alloc   []uint64
	// epochs holds the birth epoch of each object slot (see epoch.go);
	// slot i is meaningful only while alloc bit i is set.
	epochs []uint32
	// allocated counts set alloc bits, so the sweep and mark phases can
	// dismiss all-free pages without scanning the bitmap.
	allocated uint32
	// anyMarked records whether any mark bit has been set since the last
	// clearMarks: a page whose bitmap is already clean (freshly carved, or
	// populated only since the previous collection) skips the clear.
	anyMarked bool
}

func bitmapWords(n uint32) int { return int((n + 63) / 64) }

func (p *pageHeader) markBit(i uint32) bool { return p.mark[i/64]&(1<<(i%64)) != 0 }
func (p *pageHeader) setMark(i uint32) {
	p.mark[i/64] |= 1 << (i % 64)
	p.anyMarked = true
}
func (p *pageHeader) clearMarks() {
	clear(p.mark)
	p.anyMarked = false
}
func (p *pageHeader) clearMark(i uint32)     { p.mark[i/64] &^= 1 << (i % 64) }
func (p *pageHeader) allocBit(i uint32) bool { return p.alloc[i/64]&(1<<(i%64)) != 0 }
func (p *pageHeader) setAlloc(i uint32) {
	if p.alloc[i/64]&(1<<(i%64)) == 0 {
		p.alloc[i/64] |= 1 << (i % 64)
		p.allocated++
	}
}
func (p *pageHeader) clearAlloc(i uint32) {
	if p.alloc[i/64]&(1<<(i%64)) != 0 {
		p.alloc[i/64] &^= 1 << (i % 64)
		p.allocated--
	}
}

// bottomBits is the log2 of the number of pages covered by one bottom-level
// index block of the two-level page tree.
const bottomBits = 10

// A span is a run of free pages available for reuse.
type span struct {
	page   uint32 // first page index (relative to HeapBase)
	npages uint32
}

const numClasses = MaxSmall/Granule + 1

// Heap is a conservative garbage-collected heap. It is not safe for
// concurrent use; the simulated machine is single-threaded (the collector is
// "asynchronously triggered" with respect to the simulated program, not with
// respect to the host).
type Heap struct {
	cfg        Config
	arena      []byte
	limit      Addr // HeapBase + len(arena)
	maxBytes   uint32
	trigger    uint32
	tree       []*[1 << bottomBits]*pageHeader
	freeLists  [numClasses]Addr // per-class free-list heads (0 = empty)
	freeSpans  []span
	pages      []*pageHeader // every allocated header, for sweeping
	roots      RootScanner
	sinceGC    uint32
	stats      Stats
	markStack  []markItem
	collecting bool
	// epoch is the allocation clock: incremented on every allocation, so
	// every object's birth is totally ordered (see epoch.go). Never reset.
	epoch uint32

	// cachePage/cacheHdr are a one-entry cache over the page-tree walk in
	// header. Conservative scanning resolves long runs of addresses on the
	// same page (sequential object words, adjacent small objects), so
	// remembering the last hit turns the two-level tree walk into one
	// compare for the overwhelmingly common case. cachePage holds the page
	// index plus one; zero means empty. setHeader invalidates it.
	cachePage uint32
	cacheHdr  *pageHeader
}

// NewHeap returns an empty heap with the given configuration.
func NewHeap(cfg Config) *Heap {
	if cfg.MaxBytes == 0 {
		cfg.MaxBytes = 64 << 20
	}
	if cfg.TriggerBytes == 0 {
		cfg.TriggerBytes = 256 << 10
	}
	h := &Heap{
		cfg:      cfg,
		limit:    HeapBase,
		maxBytes: cfg.MaxBytes,
		trigger:  cfg.TriggerBytes,
	}
	h.tree = make([]*[1 << bottomBits]*pageHeader, (cfg.MaxBytes/PageSize)>>bottomBits+1)
	return h
}

// SetRoots installs the root scanner consulted by Collect.
func (h *Heap) SetRoots(r RootScanner) { h.roots = r }

// Stats returns a snapshot of cumulative collector statistics.
func (h *Heap) Stats() Stats {
	s := h.stats
	s.HeapBytes = uint64(h.limit - HeapBase)
	s.EpochHighWater = uint64(h.epoch)
	return s
}

// Contains reports whether a falls inside the address range claimed by the
// heap so far.
func (h *Heap) Contains(a Addr) bool { return a >= HeapBase && a < h.limit }

// header returns the page header covering a, or nil.
func (h *Heap) header(a Addr) *pageHeader {
	if a < HeapBase || a >= h.limit {
		return nil
	}
	page := (a - HeapBase) / PageSize
	if page+1 == h.cachePage {
		return h.cacheHdr
	}
	bottom := h.tree[page>>bottomBits]
	if bottom == nil {
		return nil
	}
	ph := bottom[page&(1<<bottomBits-1)]
	if ph != nil {
		h.cachePage, h.cacheHdr = page+1, ph
	}
	return ph
}

func (h *Heap) setHeader(page uint32, ph *pageHeader) {
	h.cachePage, h.cacheHdr = 0, nil
	top := page >> bottomBits
	if h.tree[top] == nil {
		h.tree[top] = new([1 << bottomBits]*pageHeader)
	}
	h.tree[top][page&(1<<bottomBits-1)] = ph
}

func roundUp(n, to uint32) uint32 { return (n + to - 1) / to * to }

// grabPages finds or creates a span of npages contiguous free pages and
// returns the index of its first page. It never triggers a collection.
func (h *Heap) grabPages(npages uint32) (uint32, error) {
	for i, s := range h.freeSpans {
		if s.npages >= npages {
			page := s.page
			if s.npages == npages {
				h.freeSpans = append(h.freeSpans[:i], h.freeSpans[i+1:]...)
			} else {
				h.freeSpans[i] = span{page: s.page + npages, npages: s.npages - npages}
			}
			// Reused pages may hold stale data from a previous life.
			start := page * PageSize
			clear(h.arena[start : start+npages*PageSize])
			return page, nil
		}
	}
	need := npages * PageSize
	if uint32(len(h.arena))+need > h.maxBytes {
		return 0, errf("alloc", h.limit, "heap limit of %d bytes exceeded", h.maxBytes)
	}
	page := uint32(len(h.arena)) / PageSize
	h.arena = append(h.arena, make([]byte, need)...)
	h.limit = HeapBase + Addr(len(h.arena))
	return page, nil
}

// Alloc allocates n bytes of zeroed, collector-managed memory and returns
// its address. Following the paper, every object is allocated with at least
// one extra byte at the end so that a pointer one past the end of the
// requested region still points inside the object.
func (h *Heap) Alloc(n uint32) (Addr, error) {
	if n == 0 {
		n = 1
	}
	if n > h.maxBytes-PageSize {
		return 0, errf("alloc", 0, "request of %d bytes exceeds heap capacity", n)
	}
	size := roundUp(n+1, Granule)
	if h.cfg.Inject != nil {
		if err := h.cfg.Inject("gc.alloc"); err != nil {
			return 0, &Error{Op: "alloc", Msg: err.Error(), Err: err}
		}
		if h.cfg.Inject("gc.collect.force") != nil {
			h.Collect()
		}
	}
	if h.sinceGC >= h.trigger && h.roots != nil {
		h.Collect()
	}
	var a Addr
	var err error
	if size <= MaxSmall {
		a, err = h.allocSmall(size)
	} else {
		a, err = h.allocLarge(size)
	}
	if err != nil {
		return 0, err
	}
	h.sinceGC += size
	h.stats.BytesAllocated += uint64(size)
	h.stats.ObjectsAlloced++
	return a, nil
}

func (h *Heap) allocSmall(size uint32) (Addr, error) {
	class := size / Granule
	if h.freeLists[class] == 0 {
		if err := h.refillClass(size); err != nil {
			// Out of fresh pages: collect and retry once.
			if h.roots == nil {
				return 0, err
			}
			h.Collect()
			if h.freeLists[class] == 0 {
				if err2 := h.refillClass(size); err2 != nil {
					return 0, err2
				}
			}
		}
	}
	a := h.freeLists[class]
	next, _ := h.rawWord(a)
	h.freeLists[class] = next
	ph := h.header(a)
	idx := (a - ph.base) / ph.objSize
	ph.setAlloc(idx)
	h.stamp(ph, idx)
	h.zero(a, size)
	return a, nil
}

// refillClass carves a fresh page into objects of the given (rounded) size
// and threads them onto the class free list.
func (h *Heap) refillClass(size uint32) error {
	page, err := h.grabPages(1)
	if err != nil {
		return err
	}
	nobj := PageSize / size
	ph := &pageHeader{
		base:    HeapBase + Addr(page*PageSize),
		objSize: size,
		nobj:    nobj,
		mark:    make([]uint64, bitmapWords(nobj)),
		alloc:   make([]uint64, bitmapWords(nobj)),
		epochs:  make([]uint32, nobj),
	}
	h.setHeader(page, ph)
	h.pages = append(h.pages, ph)
	class := size / Granule
	for i := nobj; i > 0; i-- {
		obj := ph.base + Addr((i-1)*size)
		h.setRawWord(obj, h.freeLists[class])
		h.freeLists[class] = obj
	}
	return nil
}

func (h *Heap) allocLarge(size uint32) (Addr, error) {
	npages := (size + PageSize - 1) / PageSize
	page, err := h.grabPages(npages)
	if err != nil {
		if h.roots == nil {
			return 0, err
		}
		h.Collect()
		page, err = h.grabPages(npages)
		if err != nil {
			return 0, err
		}
	}
	ph := &pageHeader{
		base:    HeapBase + Addr(page*PageSize),
		objSize: size,
		nobj:    1,
		large:   true,
		spanLen: npages * PageSize,
		mark:    make([]uint64, 1),
		alloc:   make([]uint64, 1),
		epochs:  make([]uint32, 1),
	}
	for p := page; p < page+npages; p++ {
		h.setHeader(p, ph)
	}
	h.pages = append(h.pages, ph)
	ph.setAlloc(0)
	h.stamp(ph, 0)
	h.zero(ph.base, size)
	return ph.base, nil
}

func (h *Heap) zero(a Addr, n uint32) {
	off := a - HeapBase
	clear(h.arena[off : off+n])
}

// rawWord reads a word without access validation (collector internal use).
func (h *Heap) rawWord(a Addr) (Addr, error) {
	off := a - HeapBase
	if a < HeapBase || int(off)+WordSize > len(h.arena) {
		return 0, errf("read", a, "address outside heap")
	}
	return binary.LittleEndian.Uint32(h.arena[off:]), nil
}

func (h *Heap) setRawWord(a Addr, w Addr) {
	binary.LittleEndian.PutUint32(h.arena[a-HeapBase:], w)
}
