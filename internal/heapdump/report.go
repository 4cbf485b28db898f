package heapdump

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Analysis bundles a snapshot with the three derived structures every
// report needs. Building it runs the whole pipeline once: graph indexes,
// root BFS, dominator tree.
type Analysis struct {
	Snap  *Snapshot
	Graph *Graph
	Roots *RootScan
	Dom   *DomTree
}

// Analyze runs all analyses over s.
func Analyze(s *Snapshot) *Analysis {
	g := NewGraph(s)
	return &Analysis{Snap: s, Graph: g, Roots: g.ScanRoots(), Dom: g.Dominators()}
}

// Retainer is one entry of the top-retainers table.
type Retainer struct {
	Obj      *Object
	Retained uint64
	Dist     int // root distance (-1 unreachable)
}

// TopRetainers returns the n objects with the largest retained sizes,
// ties broken by base address (deterministic for golden files). It
// returns no rows for n <= 0.
func (a *Analysis) TopRetainers(n int) []Retainer {
	if n <= 0 {
		return nil
	}
	all := make([]Retainer, 0, len(a.Snap.Objects))
	for i := range a.Snap.Objects {
		all = append(all, Retainer{
			Obj:      &a.Snap.Objects[i],
			Retained: a.Dom.Retained[i],
			Dist:     a.Roots.Dist[i],
		})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Retained != all[j].Retained {
			return all[i].Retained > all[j].Retained
		}
		return all[i].Obj.Base < all[j].Obj.Base
	})
	if n < len(all) {
		all = all[:n]
	}
	return all
}

// PathString renders object i's shortest root path as
// "static@0x2004 → 0x10000020 → 0x10000040", or "(unreachable)".
func (a *Analysis) PathString(i int) string {
	path := a.Roots.Path(i)
	if path == nil {
		return "(unreachable from recorded roots)"
	}
	var b strings.Builder
	if r := a.Roots.NearestRoot(i); r != nil {
		b.WriteString(r.String())
	}
	for _, v := range path {
		fmt.Fprintf(&b, " → %#x", a.Snap.Objects[v].Base)
	}
	return b.String()
}

// describe renders one object's identity for reports:
// "object 0x10000040 (64 bytes, epoch 5, allocated at main:12 (malloc))".
func (a *Analysis) describe(o *Object) string {
	s := fmt.Sprintf("object %#x (%s bytes, epoch %d", o.Base, Comma(uint64(o.Size)), o.Epoch)
	if site := a.Snap.SiteOf(o); site != nil {
		s += ", allocated at " + site.String()
	}
	return s + ")"
}

// ExplainAddr is the forensics renderer: given the faulting address of a
// CheckError/TemporalError, it names the object containing (or the live
// object nearest to) the address, its allocation site and epoch, its
// shortest root path, and its retained size.
func (a *Analysis) ExplainAddr(addr uint32) string {
	o := a.Snap.Find(addr)
	if o == nil {
		return fmt.Sprintf("address %#x is not inside any live object "+
			"(the storage was reclaimed or never allocated)", addr)
	}
	i := a.Graph.IndexOf(o.Base)
	return fmt.Sprintf("pointer escaped into %s, retained by path %s, retained size %s bytes",
		a.describe(o), a.PathString(i), Comma(a.Dom.Retained[i]))
}

// RenderReport writes the human-readable snapshot report: the summary
// line, the top-n retainers table, and per-retainer root paths. The
// output is deterministic and is what examples/leaks pins as a golden
// file.
func (a *Analysis) RenderReport(w io.Writer, n int) {
	s := a.Snap
	fmt.Fprintf(w, "heap snapshot: trigger=%s, %d objects, %s bytes live, epoch high-water %d\n",
		s.Trigger, len(s.Objects), Comma(s.TotalBytes()), s.Epoch)
	if s.Reason != "" {
		fmt.Fprintf(w, "reason: %s\n", s.Reason)
	}
	if s.FaultAddr != 0 {
		fmt.Fprintf(w, "forensics: %s\n", a.ExplainAddr(s.FaultAddr))
	}
	top := a.TopRetainers(n)
	fmt.Fprintf(w, "top retainers by retained size:\n")
	for rank, r := range top {
		i := a.Graph.IndexOf(r.Obj.Base)
		site := "?"
		if st := a.Snap.SiteOf(r.Obj); st != nil {
			site = st.String()
		}
		fmt.Fprintf(w, "  #%-2d %#x  size %s  retained %s  dist %d  site %s\n",
			rank+1, r.Obj.Base, Comma(uint64(r.Obj.Size)), Comma(r.Retained), r.Dist, site)
		fmt.Fprintf(w, "      path: %s\n", a.PathString(i))
	}
}

// Comma formats n with thousands separators ("4,312").
func Comma(n uint64) string {
	s := fmt.Sprintf("%d", n)
	if len(s) <= 3 {
		return s
	}
	var b strings.Builder
	lead := len(s) % 3
	if lead > 0 {
		b.WriteString(s[:lead])
	}
	for i := lead; i < len(s); i += 3 {
		if b.Len() > 0 {
			b.WriteByte(',')
		}
		b.WriteString(s[i : i+3])
	}
	return b.String()
}
