package bench

import (
	"sort"
	"sync/atomic"

	"gcsafety/internal/machine"
	"gcsafety/internal/par"
	"gcsafety/internal/workloads"
)

// parOverride, when positive, pins the harness's fan-out width (tests force
// determinism checks to a fixed width; benchmarks force 1 to time the
// sequential path). Zero defers to the process-wide policy in internal/par.
var parOverride atomic.Int32

// SetParallelism overrides how many cells MeasureAll computes concurrently.
// n <= 0 restores the default (GCSAFETY_PARALLEL, else GOMAXPROCS).
func SetParallelism(n int) {
	if n < 0 {
		n = 0
	}
	parOverride.Store(int32(n))
}

// Parallelism reports the fan-out width MeasureAll will use.
func Parallelism() int {
	if n := parOverride.Load(); n > 0 {
		return int(n)
	}
	return par.Default()
}

// CellRequest names one (workload, treatment, machine) cell.
type CellRequest struct {
	Workload  workloads.Workload
	Treatment Treatment
	Machine   machine.Config
}

// MeasureAll measures every requested cell, fanning the cache misses out
// over Parallelism() workers. Results are positional: out[i] answers
// reqs[i]. Cells are shared-nothing (each owns its machine and heap) and
// land in the same content-addressed cache as Measure, so a parallel
// prefetch followed by sequential Measure calls yields bit-identical
// measurements to a purely sequential run. On failure the first error in
// request order is returned, independent of completion order.
func MeasureAll(reqs []CellRequest) ([]*Measurement, error) {
	out := make([]*Measurement, len(reqs))
	errs := make([]error, len(reqs))
	par.ForEach(Parallelism(), len(reqs), func(i int) {
		out[i], errs[i] = Measure(reqs[i].Workload, reqs[i].Treatment, reqs[i].Machine)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// prefetch warms the cell cache for every (workload, treatment) pair a
// table is about to assemble, in parallel. Tables call it first and then
// run their original sequential assembly against the warm cache: the
// rendered output is byte-identical to a sequential build by construction,
// because assembly order never changes — only cache-fill order does.
// Checked cells start first: they cost two to five times the others, and
// the fan-out ends at a barrier, so one started last would run alone.
func prefetch(cfg machine.Config, forWorkload func(w workloads.Workload) []Treatment) error {
	var reqs []CellRequest
	for _, w := range workloads.All() {
		for _, tr := range forWorkload(w) {
			reqs = append(reqs, CellRequest{Workload: w, Treatment: tr, Machine: cfg})
		}
	}
	sort.SliceStable(reqs, func(i, j int) bool {
		return reqs[i].Treatment.Checked && !reqs[j].Treatment.Checked
	})
	_, err := MeasureAll(reqs)
	return err
}
