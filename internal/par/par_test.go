package par

import (
	"sync/atomic"
	"testing"
	"time"
)

func TestForEachVisitsEveryIndexOnce(t *testing.T) {
	for _, width := range []int{0, 1, 2, 7} {
		var hits [100]atomic.Int32
		ForEach(width, len(hits), func(i int) { hits[i].Add(1) })
		for i := range hits {
			if n := hits[i].Load(); n != 1 {
				t.Fatalf("width %d: index %d ran %d times", width, i, n)
			}
		}
	}
}

// TestForEachPanicReachesCaller: a panic in f on a worker goroutine
// surfaces in the caller with its value, instead of hanging the fan-out.
func TestForEachPanicReachesCaller(t *testing.T) {
	done := make(chan any, 1)
	var ran atomic.Int32
	go func() {
		defer func() { done <- recover() }()
		ForEach(2, 1000, func(int) {
			ran.Add(1)
			panic("boom")
		})
	}()
	select {
	case v := <-done:
		if v != "boom" {
			t.Fatalf("recovered %v, want the worker's panic value", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ForEach hung after a worker panicked")
	}
	if n := ran.Load(); n > 2 {
		t.Errorf("%d iterations ran; claiming did not stop at the first panic per worker", n)
	}
}
