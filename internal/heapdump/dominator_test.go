package heapdump

import (
	"fmt"
	"math/rand"
	"testing"
)

// buildSnapshot hand-builds a snapshot from an adjacency description:
// sizes[i] is object i's size, edges[i] lists i's successors, rooted
// lists the directly-rooted objects. Object i gets base 0x1000_0000 +
// 0x100*i so indices and addresses are trivially convertible.
func buildSnapshot(sizes []uint32, edges map[int][]int, rooted []int) *Snapshot {
	base := func(i int) uint32 { return 0x1000_0000 + 0x100*uint32(i) }
	s := &Snapshot{Trigger: TriggerRequest}
	for i, sz := range sizes {
		o := Object{Base: base(i), Size: sz, Epoch: uint32(i + 1), Site: -1}
		for _, j := range edges[i] {
			o.Refs = append(o.Refs, base(j))
		}
		s.Objects = append(s.Objects, o)
	}
	for _, i := range rooted {
		s.Roots = append(s.Roots, Root{Kind: RootStatic, Slot: uint32(0x2000 + 4*i),
			Word: base(i), Target: base(i)})
	}
	return s
}

// checkAgainstBruteForce verifies every object's dominator-tree retained
// size against the reachability-deletion definition.
func checkAgainstBruteForce(t *testing.T, g *Graph, dom *DomTree) {
	t.Helper()
	for i := 0; i < g.Len(); i++ {
		want := g.BruteRetained(i)
		if got := dom.Retained[i]; got != want {
			t.Errorf("object %d (%#x): retained %d, want %d (brute force)",
				i, g.Snap.Objects[i].Base, got, want)
		}
	}
}

func TestDominatorsDiamond(t *testing.T) {
	// r -> 0; 0 -> 1,2; 1 -> 3; 2 -> 3. The diamond: 3 is dominated by 0,
	// not by 1 or 2.
	s := buildSnapshot([]uint32{8, 16, 32, 64},
		map[int][]int{0: {1, 2}, 1: {3}, 2: {3}}, []int{0})
	g := NewGraph(s)
	dom := g.Dominators()
	if dom.Idom[3] != 0 {
		t.Errorf("idom(3) = %d, want 0", dom.Idom[3])
	}
	if dom.Idom[0] != dom.Root {
		t.Errorf("idom(0) = %d, want root %d", dom.Idom[0], dom.Root)
	}
	if want := uint64(8 + 16 + 32 + 64); dom.Retained[0] != want {
		t.Errorf("retained(0) = %d, want %d", dom.Retained[0], want)
	}
	if dom.Retained[1] != 16 || dom.Retained[2] != 32 {
		t.Errorf("retained(1,2) = %d,%d, want 16,32 (neither retains the shared sink)",
			dom.Retained[1], dom.Retained[2])
	}
	checkAgainstBruteForce(t, g, dom)
}

func TestDominatorsCycle(t *testing.T) {
	// r -> 0 -> 1 -> 2 -> 1 (cycle between 1 and 2).
	s := buildSnapshot([]uint32{8, 16, 32},
		map[int][]int{0: {1}, 1: {2}, 2: {1}}, []int{0})
	g := NewGraph(s)
	dom := g.Dominators()
	if dom.Idom[1] != 0 || dom.Idom[2] != 1 {
		t.Errorf("idom(1)=%d idom(2)=%d, want 0,1", dom.Idom[1], dom.Idom[2])
	}
	if dom.Retained[1] != 16+32 {
		t.Errorf("retained(1) = %d, want 48 (cycle member dominates its partner)", dom.Retained[1])
	}
	checkAgainstBruteForce(t, g, dom)
}

func TestDominatorsSelfLoop(t *testing.T) {
	// r -> 0 -> 0 (self-loop) and r -> 1 -> 1.
	s := buildSnapshot([]uint32{24, 40},
		map[int][]int{0: {0}, 1: {1}}, []int{0, 1})
	g := NewGraph(s)
	dom := g.Dominators()
	if dom.Retained[0] != 24 || dom.Retained[1] != 40 {
		t.Errorf("retained = %d,%d, want 24,40", dom.Retained[0], dom.Retained[1])
	}
	checkAgainstBruteForce(t, g, dom)
}

func TestDominatorsTwoRoots(t *testing.T) {
	// Two roots reach the same sink: r -> 0 -> 2, r -> 1 -> 2, 2 -> 3.
	// Nothing but the virtual root dominates 2, so neither 0 nor 1 retains
	// it; 2 retains 3.
	s := buildSnapshot([]uint32{8, 16, 32, 64},
		map[int][]int{0: {2}, 1: {2}, 2: {3}}, []int{0, 1})
	g := NewGraph(s)
	dom := g.Dominators()
	if dom.Idom[2] != dom.Root {
		t.Errorf("idom(2) = %d, want virtual root %d", dom.Idom[2], dom.Root)
	}
	if dom.Retained[0] != 8 || dom.Retained[1] != 16 {
		t.Errorf("retained(0,1) = %d,%d, want 8,16", dom.Retained[0], dom.Retained[1])
	}
	if dom.Retained[2] != 32+64 {
		t.Errorf("retained(2) = %d, want 96", dom.Retained[2])
	}
	checkAgainstBruteForce(t, g, dom)
}

func TestDominatorsObjectRootedTwiceAndReferenced(t *testing.T) {
	// An object that is both directly rooted and referenced from another
	// rooted object: the root edge means nothing else dominates it.
	s := buildSnapshot([]uint32{8, 16},
		map[int][]int{0: {1}}, []int{0, 1})
	g := NewGraph(s)
	dom := g.Dominators()
	if dom.Idom[1] != dom.Root {
		t.Errorf("idom(1) = %d, want virtual root", dom.Idom[1])
	}
	if dom.Retained[0] != 8 {
		t.Errorf("retained(0) = %d, want 8", dom.Retained[0])
	}
	checkAgainstBruteForce(t, g, dom)
}

func TestDominatorsEmptyHeap(t *testing.T) {
	s := buildSnapshot(nil, nil, nil)
	g := NewGraph(s)
	dom := g.Dominators()
	if len(dom.Retained) != 0 || len(dom.Idom) != 0 {
		t.Fatalf("empty heap produced non-empty dominator tree: %+v", dom)
	}
	rs := g.ScanRoots()
	if len(rs.Dist) != 0 {
		t.Fatalf("empty heap produced root distances: %+v", rs.Dist)
	}
	if a := Analyze(s); len(a.TopRetainers(10)) != 0 {
		t.Fatal("empty heap produced retainers")
	}
}

func TestTopRetainersNonPositive(t *testing.T) {
	a := Analyze(buildSnapshot([]uint32{8, 16}, map[int][]int{0: {1}}, []int{0}))
	if got := len(a.TopRetainers(1)); got != 1 {
		t.Fatalf("TopRetainers(1) returned %d rows, want 1", got)
	}
	for _, n := range []int{0, -1} {
		if got := a.TopRetainers(n); len(got) != 0 {
			t.Errorf("TopRetainers(%d) returned %d rows, want none", n, len(got))
		}
	}
}

func TestDominatorsUnreachableObjects(t *testing.T) {
	// 2 and 3 reference each other but no root reaches them.
	s := buildSnapshot([]uint32{8, 16, 32, 64},
		map[int][]int{0: {1}, 2: {3}, 3: {2}}, []int{0})
	g := NewGraph(s)
	dom := g.Dominators()
	if dom.Idom[2] != -1 || dom.Idom[3] != -1 {
		t.Errorf("unreachable objects got dominators: idom(2)=%d idom(3)=%d",
			dom.Idom[2], dom.Idom[3])
	}
	if dom.Retained[2] != 0 || dom.Retained[3] != 0 {
		t.Errorf("unreachable objects retain bytes: %d,%d", dom.Retained[2], dom.Retained[3])
	}
	checkAgainstBruteForce(t, g, dom)
}

// TestDominatorsRandomGraphs cross-checks Lengauer–Tarjan against the
// brute-force oracle on randomized graphs of varying density, including
// cycles, self-loops, multi-root overlap and unreachable islands.
func TestDominatorsRandomGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(30)
		sizes := make([]uint32, n)
		for i := range sizes {
			sizes[i] = 8 * uint32(1+rng.Intn(64))
		}
		edges := map[int][]int{}
		nedges := rng.Intn(3 * n)
		for e := 0; e < nedges; e++ {
			from := rng.Intn(n)
			edges[from] = append(edges[from], rng.Intn(n)) // self-loops included
		}
		var rooted []int
		for i := 0; i < n; i++ {
			if rng.Intn(4) == 0 {
				rooted = append(rooted, i)
			}
		}
		if len(rooted) == 0 {
			rooted = append(rooted, rng.Intn(n))
		}
		s := buildSnapshot(sizes, edges, rooted)
		g := NewGraph(s)
		dom := g.Dominators()
		for i := 0; i < n; i++ {
			want := g.BruteRetained(i)
			if got := dom.Retained[i]; got != want {
				t.Fatalf("trial %d: object %d retained %d, want %d\nsizes=%v edges=%v rooted=%v",
					trial, i, got, want, sizes, edges, rooted)
			}
		}
	}
}

func TestRootScanDistancesAndPaths(t *testing.T) {
	// r -> 0 -> 1 -> 2; r -> 3; 4 unreachable.
	s := buildSnapshot([]uint32{8, 8, 8, 8, 8},
		map[int][]int{0: {1}, 1: {2}}, []int{0, 3})
	g := NewGraph(s)
	rs := g.ScanRoots()
	wantDist := []int{1, 2, 3, 1, -1}
	for i, want := range wantDist {
		if rs.Dist[i] != want {
			t.Errorf("dist(%d) = %d, want %d", i, rs.Dist[i], want)
		}
	}
	path := rs.Path(2)
	if fmt.Sprint(path) != "[0 1 2]" {
		t.Errorf("path(2) = %v, want [0 1 2]", path)
	}
	if r := rs.NearestRoot(2); r == nil || r.Target != s.Objects[0].Base {
		t.Errorf("nearest root of 2 = %+v, want root of object 0", r)
	}
	if rs.Path(4) != nil || rs.NearestRoot(4) != nil {
		t.Error("unreachable object got a root path")
	}
}

func TestCommaFormatting(t *testing.T) {
	cases := map[uint64]string{0: "0", 999: "999", 1000: "1,000",
		4312: "4,312", 1234567: "1,234,567"}
	for n, want := range cases {
		if got := Comma(n); got != want {
			t.Errorf("Comma(%d) = %q, want %q", n, got, want)
		}
	}
}
