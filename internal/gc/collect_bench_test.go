package gc_test

import (
	"context"
	"testing"

	"gcsafety/internal/artifact"
	"gcsafety/internal/gc"
	"gcsafety/internal/interp"
	"gcsafety/internal/machine"
	"gcsafety/internal/pipeline"
	"gcsafety/internal/workloads"
)

// capturedHeap is a heap frozen at one collection of a real run — its
// state as the collection starts scanning roots — together with copies of
// the root registers and memory segments the machine handed it.
type capturedHeap struct {
	heap *gc.Heap
	regs []gc.Addr
	segs [][]byte
}

// replayRoots feeds a cloned heap the captured roots the way the machine
// does: registers one word at a time, memory through MarkSegment.
type replayRoots struct {
	h    *gc.Heap
	regs []gc.Addr
	segs [][]byte
}

func (r *replayRoots) ScanRoots(visit func(gc.Addr)) {
	for _, w := range r.regs {
		visit(w)
	}
	for _, s := range r.segs {
		r.h.MarkSegment(s)
	}
}

// fresh returns a private copy of the captured heap, its roots installed
// and its collection begun (mark bitmaps clear).
func (c *capturedHeap) fresh() *gc.Heap {
	h := c.heap.Clone()
	h.SetRoots(&replayRoots{h: h, regs: c.regs, segs: c.segs})
	h.BeginCollect()
	return h
}

// captureHeap runs the optimized, annotated build of a workload under
// CollectAtEveryAlloc and captures the heap at the collection halfway
// through the run, then abandons the run.
func captureHeap(b *testing.B, name string) *capturedHeap {
	b.Helper()
	w, ok := workloads.ByName(name)
	if !ok {
		b.Fatalf("no workload %q", name)
	}
	cfg := machine.SPARCstation10()
	built, err := pipeline.NewRunner(artifact.New(0)).Build(context.Background(), name+".c", w.Source,
		pipeline.Options{Annotate: true, Optimize: true, Machine: cfg})
	if err != nil {
		b.Fatal(err)
	}
	opts := interp.Options{Config: cfg, Input: w.Input, CollectAtEveryAlloc: true}
	res, err := interp.Run(built.Prog, opts)
	if err != nil {
		b.Fatal(err)
	}
	target := res.GCStats.Collections / 2

	m := interp.New(built.Prog, opts)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var n uint64
	var c *capturedHeap
	h := m.Heap()
	h.SetRoots(gc.RootFunc(func(visit func(gc.Addr)) {
		if n++; n == target {
			c = &capturedHeap{heap: h.Clone()}
			m.WalkRoots(func(s interp.RootSegment) {
				c.regs = append(c.regs, s.Regs...)
				if len(s.Mem) > 0 {
					c.segs = append(c.segs, append([]byte(nil), s.Mem...))
				}
			})
			cancel()
		}
		m.ScanRoots(visit)
	}))
	_, _ = m.RunContext(ctx) // cancelled right after the capture
	if c == nil {
		b.Fatalf("%s: run ended before collection %d", name, target)
	}
	return c
}

// BenchmarkCollect times the collector's phases on heaps captured from
// real runs of gs and cordtest: roots (marking from the registers, stack
// and statics), mark (roots plus the transitive drain) and sweep (over the
// complete mark bitmaps). Every iteration works on a fresh copy of the
// captured heap, so every iteration does the same work. live-B is the
// heap's live bytes after the collection.
func BenchmarkCollect(b *testing.B) {
	for _, name := range []string{"gs", "cordtest"} {
		c := captureHeap(b, name)
		marked := c.fresh()
		marked.MarkRoots()
		marked.DrainMarks()
		swept := marked.Clone()
		swept.Sweep()
		live := float64(swept.Stats().LiveBytes)

		phase := func(b *testing.B, start func() *gc.Heap, run func(*gc.Heap)) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				h := start()
				b.StartTimer()
				run(h)
			}
			b.ReportMetric(live, "live-B")
		}
		b.Run("roots/"+name, func(b *testing.B) {
			phase(b, c.fresh, (*gc.Heap).MarkRoots)
		})
		b.Run("mark/"+name, func(b *testing.B) {
			phase(b, c.fresh, func(h *gc.Heap) {
				h.MarkRoots()
				h.DrainMarks()
			})
		})
		b.Run("sweep/"+name, func(b *testing.B) {
			phase(b, marked.Clone, (*gc.Heap).Sweep)
		})
	}
}
