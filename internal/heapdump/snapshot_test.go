package heapdump

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"gcsafety/internal/artifact"
	"gcsafety/internal/gc"
)

func testHeap(t *testing.T) *gc.Heap {
	t.Helper()
	return gc.NewHeap(gc.Config{MaxBytes: 8 << 20, TriggerBytes: ^uint32(0), Poison: true})
}

func alloc(t *testing.T, h *gc.Heap, n uint32) uint32 {
	t.Helper()
	a, err := h.Alloc(n)
	if err != nil {
		t.Fatalf("Alloc(%d): %v", n, err)
	}
	return a
}

// write stores a word into the heap through the public access API.
func write(t *testing.T, h *gc.Heap, a, w uint32) {
	t.Helper()
	if err := h.WriteWord(a, w); err != nil {
		t.Fatalf("WriteWord(%#x): %v", a, err)
	}
}

func TestCaptureFromLiveHeap(t *testing.T) {
	h := testHeap(t)
	a := alloc(t, h, 16)
	b := alloc(t, h, 16)
	c := alloc(t, h, 16)
	write(t, h, a, b)
	write(t, h, b+4, c+8) // interior reference

	roots := func(emit func(kind string, thread int, slot, word uint32)) {
		emit(RootReg, 0, 3, a)
		emit(RootReg, 0, 4, 12345) // not a pointer: dropped
		emit(RootStatic, 0, 0x2000, a+4)
	}
	snap := Capture(h, TriggerRequest, roots, nil, nil)

	if len(snap.Objects) != 3 {
		t.Fatalf("snapshot has %d objects, want 3", len(snap.Objects))
	}
	for i := 1; i < len(snap.Objects); i++ {
		if snap.Objects[i-1].Base >= snap.Objects[i].Base {
			t.Fatal("objects not sorted by base")
		}
	}
	oa := snap.Object(a)
	if oa == nil || len(oa.Refs) != 1 || oa.Refs[0] != b {
		t.Fatalf("object a refs = %+v, want [%#x]", oa, b)
	}
	ob := snap.Object(b)
	if ob == nil || len(ob.Refs) != 1 || ob.Refs[0] != c {
		t.Fatalf("object b refs = %+v, want [%#x] (interior pointer resolves)", ob, c)
	}
	if len(snap.Roots) != 2 {
		t.Fatalf("roots = %+v, want 2 (the non-pointer dropped)", snap.Roots)
	}
	if snap.Roots[1].Target != a {
		t.Errorf("interior root resolved to %#x, want %#x", snap.Roots[1].Target, a)
	}
	if snap.TotalBytes() != uint64(h.ObjectSize(a)+h.ObjectSize(b)+h.ObjectSize(c)) {
		t.Errorf("TotalBytes = %d", snap.TotalBytes())
	}
	if got := snap.Find(c + 8); got == nil || got.Base != c {
		t.Errorf("Find(interior) = %+v, want object %#x", got, c)
	}
	if snap.Find(0xdead) != nil {
		t.Error("Find(non-heap) found an object")
	}
	if snap.Epoch != uint32(h.Stats().EpochHighWater) {
		t.Errorf("snapshot epoch %d, want %d", snap.Epoch, h.Stats().EpochHighWater)
	}
}

func TestCaptureEndToEndAnalysis(t *testing.T) {
	// A rooted chain head -> n1 -> n2 plus garbage: the head must retain
	// the whole chain, and the analysis path must name the root.
	h := testHeap(t)
	head := alloc(t, h, 16)
	n1 := alloc(t, h, 16)
	n2 := alloc(t, h, 16)
	write(t, h, head, n1)
	write(t, h, n1, n2)
	garbage := alloc(t, h, 400)
	_ = garbage

	sites := []Site{{ID: 0, Func: "main", Line: 7, Kind: "malloc", Allocs: 4, Bytes: 472}}
	siteOf := func(base uint32) int32 { return 0 }
	snap := Capture(h, TriggerExit, func(emit func(string, int, uint32, uint32)) {
		emit(RootStatic, 0, 0x2004, head)
	}, siteOf, sites)

	a := Analyze(snap)
	i := a.Graph.IndexOf(head)
	sz := uint64(h.ObjectSize(head) + h.ObjectSize(n1) + h.ObjectSize(n2))
	if a.Dom.Retained[i] != sz {
		t.Errorf("head retained %d, want %d", a.Dom.Retained[i], sz)
	}
	if want := a.Graph.BruteRetained(i); a.Dom.Retained[i] != want {
		t.Errorf("dominator retained %d disagrees with brute force %d", a.Dom.Retained[i], want)
	}
	gi := a.Graph.IndexOf(garbage)
	if a.Roots.Dist[gi] != -1 {
		t.Error("garbage object reachable from roots")
	}
	explain := a.ExplainAddr(n2 + 4)
	for _, want := range []string{"main:7 (malloc)", "static@0x2004", "retained size"} {
		if !strings.Contains(explain, want) {
			t.Errorf("ExplainAddr = %q, missing %q", explain, want)
		}
	}
	var buf bytes.Buffer
	a.RenderReport(&buf, 3)
	if !strings.Contains(buf.String(), "top retainers") {
		t.Errorf("report missing retainers section:\n%s", buf.String())
	}
}

func TestTruncateObjects(t *testing.T) {
	h := testHeap(t)
	var bases []uint32
	for i := 0; i < 10; i++ {
		bases = append(bases, alloc(t, h, 16))
	}
	// Last object references the first; a root references the last.
	write(t, h, bases[9], bases[0])
	snap := Capture(h, TriggerRequest, func(emit func(string, int, uint32, uint32)) {
		emit(RootReg, 0, 1, bases[9])
		emit(RootReg, 0, 2, bases[0])
	}, nil, nil)
	full := snap
	snap = snap.TruncateObjects(4)
	if len(snap.Objects) != 4 || !snap.Truncated {
		t.Fatalf("truncate kept %d objects (truncated=%v), want 4", len(snap.Objects), snap.Truncated)
	}
	if len(full.Objects) != 10 || full.Truncated || len(full.Roots) != 2 {
		t.Fatalf("truncation modified the original: %d objects, %d roots, truncated=%v",
			len(full.Objects), len(full.Roots), full.Truncated)
	}
	for _, r := range snap.Roots {
		if snap.Object(r.Target) == nil {
			t.Errorf("root targets dropped object %#x", r.Target)
		}
	}
	for i := range snap.Objects {
		for _, ref := range snap.Objects[i].Refs {
			if snap.Object(ref) == nil {
				t.Errorf("ref to dropped object %#x survived truncation", ref)
			}
		}
	}
	// Analyses must still run on a truncated snapshot.
	_ = Analyze(snap)
}

func TestSnapshotJSONRoundtrip(t *testing.T) {
	h := testHeap(t)
	a := alloc(t, h, 16)
	b := alloc(t, h, 16)
	write(t, h, a, b)
	snap := Capture(h, TriggerExit, func(emit func(string, int, uint32, uint32)) {
		emit(RootReg, 0, 1, a)
	}, nil, []Site{{ID: 0, Func: "main", Line: 3, Kind: "malloc"}})
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if len(back.Objects) != len(snap.Objects) || back.TotalBytes() != snap.TotalBytes() {
		t.Fatalf("roundtrip mismatch: %+v vs %+v", back, snap)
	}
}

// TestWireCodecRoundtrip checks that a snapshot survives the gob wire
// encoding that persists it (inside a clean execution's artifact) with
// its content and its cache accounting unchanged.
func TestWireCodecRoundtrip(t *testing.T) {
	h := testHeap(t)
	a := alloc(t, h, 16)
	b := alloc(t, h, 16)
	write(t, h, a, b)
	snap := Capture(h, TriggerRequest, func(emit func(string, int, uint32, uint32)) {
		emit(RootReg, 0, 1, a)
	}, nil, nil)

	data, ok := artifact.GobBytes(snap)
	if !ok {
		t.Fatal("encode failed")
	}
	back := &Snapshot{}
	if err := artifact.GobDecode(data, back); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if back.AccountedSize() != snap.AccountedSize() {
		t.Fatalf("accounted size %d after roundtrip, want %d", back.AccountedSize(), snap.AccountedSize())
	}
	if len(back.Objects) != 2 || back.Objects[0].Base != a || back.Objects[1].Base != b {
		t.Fatalf("roundtrip objects mismatch: %+v", back.Objects)
	}
	if len(back.Objects[0].Refs) != 1 || back.Objects[0].Refs[0] != b {
		t.Fatalf("roundtrip refs mismatch: %+v", back.Objects[0].Refs)
	}
	if len(back.Roots) != 1 || back.Roots[0].Target != a || back.Trigger != snap.Trigger {
		t.Fatalf("roundtrip roots/trigger mismatch: %+v vs %+v", back, snap)
	}
	// A truncated snapshot keeps its flag across the wire.
	cut := snap.TruncateObjects(1)
	data, ok = artifact.GobBytes(cut)
	if !ok {
		t.Fatal("encode truncated failed")
	}
	back = &Snapshot{}
	if err := artifact.GobDecode(data, back); err != nil {
		t.Fatalf("decode truncated: %v", err)
	}
	if !back.Truncated || len(back.Objects) != 1 {
		t.Fatalf("truncated roundtrip: truncated=%v objects=%d", back.Truncated, len(back.Objects))
	}
}
