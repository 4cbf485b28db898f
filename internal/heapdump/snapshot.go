// Package heapdump turns the collector's address→object knowledge into an
// explorable artifact: a point-in-time snapshot of every live heap object
// (base, size, birth epoch, allocation site, outgoing references discovered
// by conservative word scanning) together with the GC roots referencing
// them, plus the analyses every heap tool needs — nearest-root paths (BFS),
// parent/reference indexes, and retained sizes via the Lengauer–Tarjan
// dominator tree. It is the repo's answer to ROADMAP's "heap introspection
// as a product": checker violations and leaks stop being a single error
// string and become provenance ("allocated at main:12, epoch 5, retained by
// path root→A→B, 4,312 bytes").
//
// Because the heap is untyped and scanning is conservative, edges are
// approximate in exactly the collector's way: any word that happens to look
// like a pointer into a live object is an edge. False-positive edges can
// only over-approximate reachability and retained sizes — the same
// direction the collector itself errs in — never hide an object.
package heapdump

import (
	"fmt"
	"sort"
	"time"

	"gcsafety/internal/gc"
)

// Snapshot triggers.
const (
	// TriggerExit marks a snapshot taken when the program ran to completion.
	TriggerExit = "exit"
	// TriggerViolation marks a snapshot taken because a checker fired
	// (CheckError/TemporalError) or the access validator caught a fault.
	TriggerViolation = "violation"
	// TriggerFault marks a snapshot taken after a non-checker fault.
	TriggerFault = "fault"
	// TriggerRequest marks a snapshot served on demand (RequestSnapshot,
	// the /v1/heapdump endpoint).
	TriggerRequest = "request"
)

// Root kinds.
const (
	RootReg    = "reg"    // a machine register (Slot = register number)
	RootStack  = "stack"  // a live stack word (Slot = its address)
	RootStatic = "static" // a static-segment word (Slot = its address)
)

// Object is one live heap object.
type Object struct {
	Base  uint32 `json:"base"`
	Size  uint32 `json:"size"` // rounded (actual) size in bytes
	Epoch uint32 `json:"epoch"`
	// Site is the allocation-site ID (index into Snapshot.Sites), or -1
	// when provenance was not recorded (profiling off, or runtime-internal
	// allocation).
	Site   int32 `json:"site"`
	Marked bool  `json:"marked,omitempty"`
	Large  bool  `json:"large,omitempty"`
	// Refs holds the base addresses of the live objects this object's
	// words conservatively reference, deduplicated and sorted.
	Refs []uint32 `json:"refs,omitempty"`
}

// Root is one GC-root word that references a live object.
type Root struct {
	Kind   string `json:"kind"` // RootReg, RootStack or RootStatic
	Thread int    `json:"thread,omitempty"`
	Slot   uint32 `json:"slot"`   // register number, or the word's address
	Word   uint32 `json:"word"`   // the raw root word
	Target uint32 `json:"target"` // base of the object it references
}

// String renders a root for reports: "reg r3", "stack@0x3fffff40",
// "static@0x2004" (with a thread prefix in concurrent mode).
func (r Root) String() string {
	var s string
	switch r.Kind {
	case RootReg:
		s = fmt.Sprintf("reg r%d", r.Slot)
	default:
		s = fmt.Sprintf("%s@%#x", r.Kind, r.Slot)
	}
	if r.Thread > 0 {
		s = fmt.Sprintf("t%d:%s", r.Thread, s)
	}
	return s
}

// Site is one allocation site: a (function, line, allocator) triple with
// cumulative allocation counters.
type Site struct {
	ID     int32  `json:"id"`
	Func   string `json:"func"`
	Line   int32  `json:"line"` // 1-based source line; 0 unknown
	Kind   string `json:"kind"` // "malloc", "calloc", "realloc"
	Allocs uint64 `json:"allocs"`
	Bytes  uint64 `json:"bytes"`
}

// String renders a site as "main:12 (malloc)".
func (s Site) String() string {
	if s.Line == 0 {
		return fmt.Sprintf("%s (%s)", s.Func, s.Kind)
	}
	return fmt.Sprintf("%s:%d (%s)", s.Func, s.Line, s.Kind)
}

// Snapshot is a point-in-time image of the live heap.
type Snapshot struct {
	Trigger string `json:"trigger"`
	// Reason carries the violation/fault message for TriggerViolation and
	// TriggerFault snapshots.
	Reason string `json:"reason,omitempty"`
	// FaultAddr is the faulting address of a violation snapshot (0 when
	// unknown or not applicable).
	FaultAddr uint32 `json:"fault_addr,omitempty"`
	// Epoch is the allocation clock's reading at capture time.
	Epoch   uint32   `json:"epoch"`
	Objects []Object `json:"objects"` // sorted by Base
	Roots   []Root   `json:"roots"`
	Sites   []Site   `json:"sites,omitempty"` // indexed by Site.ID
	// Truncated reports that Objects was cut short by a caller-imposed
	// bound (the /v1/heapdump per-request size bound).
	Truncated bool `json:"truncated,omitempty"`
	// CaptureNs is how long the capture took on the host, for the
	// daemon's snapshot-duration histogram. Not part of snapshot
	// identity: two captures of the same heap differ only here.
	CaptureNs int64 `json:"capture_ns,omitempty"`
}

// RootSource feeds Capture the GC-root words: the interpreter (or a test)
// calls emit once per root word with its provenance. Words that do not
// resolve to a live object are dropped by Capture, so sources may emit
// fully conservatively, exactly like a collector root scan.
type RootSource func(emit func(kind string, thread int, slot, word uint32))

// Capture snapshots h. roots supplies the GC-root words; siteOf maps an
// object base to its allocation-site ID (-1 when unknown) and sites is the
// site table those IDs index (both may be nil). Capture only reads the
// heap — see gc's introspection API — so a snapshot perturbs neither the
// mutator nor the collector.
func Capture(h *gc.Heap, trigger string, roots RootSource, siteOf func(base uint32) int32, sites []Site) *Snapshot {
	start := time.Now()
	snap := &Snapshot{Trigger: trigger, Epoch: h.Epoch(), Sites: sites}
	h.VisitObjects(func(o gc.ObjectInfo) {
		obj := Object{Base: o.Base, Size: o.Size, Epoch: o.Epoch,
			Marked: o.Marked, Large: o.Large, Site: -1}
		if siteOf != nil {
			obj.Site = siteOf(o.Base)
		}
		snap.Objects = append(snap.Objects, obj)
	})
	sort.Slice(snap.Objects, func(i, j int) bool {
		return snap.Objects[i].Base < snap.Objects[j].Base
	})
	for i := range snap.Objects {
		o := &snap.Objects[i]
		h.VisitReferences(o.Base, func(off uint32, target uint32) {
			o.Refs = append(o.Refs, target)
		})
		if len(o.Refs) > 1 {
			sort.Slice(o.Refs, func(a, b int) bool { return o.Refs[a] < o.Refs[b] })
			o.Refs = dedupSorted(o.Refs)
		}
	}
	if roots != nil {
		roots(func(kind string, thread int, slot, word uint32) {
			if target := h.BaseRO(word); target != 0 {
				snap.Roots = append(snap.Roots, Root{
					Kind: kind, Thread: thread, Slot: slot, Word: word, Target: target})
			}
		})
	}
	snap.CaptureNs = time.Since(start).Nanoseconds()
	return snap
}

func dedupSorted(s []uint32) []uint32 {
	out := s[:1]
	for _, v := range s[1:] {
		if v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}

// TotalBytes sums the sizes of every object in the snapshot.
func (s *Snapshot) TotalBytes() uint64 {
	var n uint64
	for i := range s.Objects {
		n += uint64(s.Objects[i].Size)
	}
	return n
}

// Object returns the object whose base address is exactly base, or nil.
func (s *Snapshot) Object(base uint32) *Object {
	i := sort.Search(len(s.Objects), func(i int) bool { return s.Objects[i].Base >= base })
	if i < len(s.Objects) && s.Objects[i].Base == base {
		return &s.Objects[i]
	}
	return nil
}

// Find returns the object containing addr (interior addresses included),
// or nil.
func (s *Snapshot) Find(addr uint32) *Object {
	i := sort.Search(len(s.Objects), func(i int) bool { return s.Objects[i].Base > addr })
	if i == 0 {
		return nil
	}
	o := &s.Objects[i-1]
	if addr < o.Base+o.Size {
		return o
	}
	return nil
}

// SiteOf returns o's allocation site, or nil when provenance is absent.
func (s *Snapshot) SiteOf(o *Object) *Site {
	if o == nil || o.Site < 0 || int(o.Site) >= len(s.Sites) {
		return nil
	}
	return &s.Sites[o.Site]
}

// AccountedSize estimates the snapshot's in-memory footprint for cache
// accounting.
func (s *Snapshot) AccountedSize() int64 {
	n := int64(len(s.Reason)) + 64
	for i := range s.Objects {
		n += 32 + int64(len(s.Objects[i].Refs))*4
	}
	n += int64(len(s.Roots)) * 24
	for i := range s.Sites {
		n += 40 + int64(len(s.Sites[i].Func)+len(s.Sites[i].Kind))
	}
	return n
}

// TruncateObjects returns the snapshot bounded to at most max objects
// (by base order), dropping roots and references that point past the
// kept prefix: the per-request size bound of the /v1/heapdump endpoint.
// A snapshot that fits is returned as is; a larger one is copied, never
// modified, since a cached snapshot is shared.
func (s *Snapshot) TruncateObjects(max int) *Snapshot {
	if max <= 0 || len(s.Objects) <= max {
		return s
	}
	t := *s
	limit := s.Objects[max].Base
	t.Objects = append([]Object(nil), s.Objects[:max]...)
	for i := range t.Objects {
		o := &t.Objects[i]
		n := sort.Search(len(o.Refs), func(j int) bool { return o.Refs[j] >= limit })
		o.Refs = o.Refs[:n:n]
	}
	t.Roots = s.Roots[:0:0]
	for _, r := range s.Roots {
		if r.Target < limit {
			t.Roots = append(t.Roots, r)
		}
	}
	t.Truncated = true
	return &t
}
