package interp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"

	"gcsafety/internal/faultinject"
	"gcsafety/internal/gc"
	"gcsafety/internal/heapdump"
)

// Heap snapshots. CaptureSnapshot reads the machine and heap without
// mutating either (the introspection API in internal/gc never touches the
// page-header cache), so it is safe at any point where the mutator is not
// concurrently running. Two paths get there:
//
//   - the machine's own goroutine captures directly — at exit, on a
//     checker violation, or when it serves a cross-goroutine request at
//     the context-poll stride (the machine's safe point);
//   - any other goroutine calls RequestSnapshot, which parks a request in
//     snapPending and waits for the dispatch loop to serve it. After the
//     run finishes (snapDone), requesters self-serve: the machine is
//     quiescent and captures are read-only, so concurrent post-run
//     captures cannot race.

type snapResult struct {
	snap *heapdump.Snapshot
	err  error
}

type snapRequest struct{ resp chan snapResult }

// CaptureSnapshot builds a heap snapshot of the machine's current state.
// It must only be called when the mutator is stopped (see the file
// comment); external callers use RequestSnapshot instead. The capture
// fires the "heapdump.capture" fault point first: an injected error loses
// the snapshot but never perturbs the run itself.
func (c *Machine) CaptureSnapshot(trigger, reason string, faultAddr uint32) (*heapdump.Snapshot, error) {
	if f := c.Opts.Faults; f != nil {
		if err := f.Fire(faultinject.PointHeapdump); err != nil {
			return nil, fmt.Errorf("heapdump capture: %w", err)
		}
	}
	var (
		sites  []heapdump.Site
		siteOf func(uint32) int32
	)
	if c.prof != nil {
		sites = append([]heapdump.Site(nil), c.prof.sites...)
		siteOf = func(base uint32) int32 {
			if id, ok := c.prof.objSite[base]; ok {
				return id
			}
			return -1
		}
	}
	snap := heapdump.Capture(c.heap, trigger, c.emitRoots, siteOf, sites)
	snap.Reason = reason
	snap.FaultAddr = faultAddr
	return snap, nil
}

// emitRoots walks exactly the root set the collector scans (WalkRoots),
// word by word with provenance (kind, thread, slot) so snapshots can
// render "reg r3" or "static@0x2004".
func (c *Machine) emitRoots(emit func(kind string, thread int, slot, word uint32)) {
	c.WalkRoots(func(s RootSegment) {
		for ri, r := range s.Regs {
			emit(s.Kind, s.Thread, uint32(ri), r)
		}
		for off := 0; off+4 <= len(s.Mem); off += 4 {
			emit(s.Kind, s.Thread, s.Base+uint32(off), binary.LittleEndian.Uint32(s.Mem[off:]))
		}
	})
}

// RequestSnapshot asks a (possibly running) machine for a heap snapshot
// and blocks until one is taken. While the program runs, the snapshot is
// captured by the machine's goroutine at its next safe point (the
// context-poll stride, every 1024 instructions), so the mutator is always
// stopped during capture; after the run, the requester captures on its own
// goroutine. This is the one Machine method that may be called from another
// goroutine mid-run.
func (c *Machine) RequestSnapshot() (*heapdump.Snapshot, error) {
	req := &snapRequest{resp: make(chan snapResult, 1)}
	for !c.snapPending.CompareAndSwap(nil, req) {
		runtime.Gosched() // another request holds the slot; wait our turn
	}
	if c.snapDone.Load() {
		// The dispatch loop has finished and will never poll again. If the
		// final drain did not already take our request, remove it and
		// self-serve: the machine is quiescent, captures are read-only.
		if c.snapPending.CompareAndSwap(req, nil) {
			return c.CaptureSnapshot(heapdump.TriggerRequest, "", 0)
		}
	}
	r := <-req.resp
	return r.snap, r.err
}

// serveSnapshot fulfills a pending cross-goroutine snapshot request, if
// any. Called only at safe points of the machine's own goroutine.
func (c *Machine) serveSnapshot() {
	req := c.snapPending.Swap(nil)
	if req == nil {
		return
	}
	snap, err := c.CaptureSnapshot(heapdump.TriggerRequest, "", 0)
	req.resp <- snapResult{snap: snap, err: err}
}

// finishSnapshots marks the run over and drains any request that arrived
// before the flag was visible. The order matters: done is published
// first, so a requester that enqueues afterwards either finds its request
// taken by this drain or self-serves — it can never hang.
func (c *Machine) finishSnapshots() {
	c.snapDone.Store(true)
	c.serveSnapshot()
}

// snapshotTrigger classifies a run outcome for snapshot labelling and digs
// out the faulting address when the error carries one.
func snapshotTrigger(err error) (trigger string, addr uint32) {
	if err == nil {
		return heapdump.TriggerExit, 0
	}
	var te *TemporalError
	if errors.As(err, &te) {
		return heapdump.TriggerViolation, te.Addr
	}
	var ge *gc.Error
	if errors.As(err, &ge) {
		return heapdump.TriggerViolation, ge.Addr
	}
	var ce *CheckError
	if errors.As(err, &ce) {
		return heapdump.TriggerViolation, 0
	}
	return heapdump.TriggerFault, 0
}
