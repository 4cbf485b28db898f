// Package par centralizes the process's parallelism policy: every
// subsystem that fans work out over goroutines — the bench harness's
// table-cell measurement, the differential matrix runner, and the gcsafed
// worker pool — sizes itself from the same default so one knob
// (GCSAFETY_PARALLEL, or gcsafed -parallel) tunes them all. See DESIGN.md
// "Parallelism policy".
package par

import (
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
)

// EnvVar overrides the default parallelism degree process-wide.
const EnvVar = "GCSAFETY_PARALLEL"

// Default returns the shared parallelism degree: GCSAFETY_PARALLEL when it
// is set to a positive integer, else GOMAXPROCS. Malformed or nonpositive
// values are ignored rather than fatal: a misconfigured environment should
// degrade to the hardware default, not take the daemon down.
func Default() int {
	if v := os.Getenv(EnvVar); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return runtime.GOMAXPROCS(0)
}

// ForEach runs f(i) for every i in [0, n) on at most width goroutines.
// Iterations are claimed in index order but complete in any order; callers
// needing deterministic output must write results into index i of a
// preallocated slice and assemble sequentially afterwards. width < 1 is
// treated as 1; width or n of 1 runs inline with no goroutines at all, so
// the sequential path stays allocation- and scheduler-free. A panic in f
// stops the claiming of further iterations and, once every worker has
// returned, is re-raised in the caller.
func ForEach(width, n int, f func(i int)) {
	if n <= 0 {
		return
	}
	if width > n {
		width = n
	}
	if width <= 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		panicked atomic.Bool
		value    any // the first panic, read after wg.Wait
	)
	wg.Add(width)
	for w := 0; w < width; w++ {
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil && panicked.CompareAndSwap(false, true) {
					value = r
				}
			}()
			for !panicked.Load() {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				f(i)
			}
		}()
	}
	wg.Wait()
	if panicked.Load() {
		panic(value)
	}
}
