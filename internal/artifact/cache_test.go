package artifact

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestKeyBuilderDistinguishesFields(t *testing.T) {
	a := NewKey("compile").Str("ab").Str("c").Sum()
	b := NewKey("compile").Str("a").Str("bc").Sum()
	if a == b {
		t.Fatal("length prefixing failed: concatenation collision")
	}
	if NewKey("compile").Str("x").Sum() == NewKey("annotate").Str("x").Sum() {
		t.Fatal("artifact kind does not participate in the key")
	}
	if NewKey("k").Bool(true).Bool(false).Sum() == NewKey("k").Bool(false).Bool(true).Sum() {
		t.Fatal("bool ordering lost")
	}
	if NewKey("k").Int(1).Sum() != NewKey("k").Int(1).Sum() {
		t.Fatal("keys are not deterministic")
	}
}

func TestGetOrComputeCachesValue(t *testing.T) {
	c := New(1 << 20)
	calls := 0
	compute := func() (any, int64, error) { calls++; return "v", 1, nil }
	v, hit, err := c.GetOrCompute(context.Background(), "k", compute)
	if err != nil || hit || v != "v" {
		t.Fatalf("first call: v=%v hit=%v err=%v", v, hit, err)
	}
	v, hit, err = c.GetOrCompute(context.Background(), "k", compute)
	if err != nil || !hit || v != "v" {
		t.Fatalf("second call: v=%v hit=%v err=%v", v, hit, err)
	}
	if calls != 1 {
		t.Fatalf("compute ran %d times, want 1", calls)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 || st.Bytes != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestErrorsAreNotCached(t *testing.T) {
	c := New(1 << 20)
	boom := errors.New("boom")
	calls := 0
	_, _, err := c.GetOrCompute(context.Background(), "k", func() (any, int64, error) {
		calls++
		return nil, 0, boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	v, _, err := c.GetOrCompute(context.Background(), "k", func() (any, int64, error) {
		calls++
		return "ok", 2, nil
	})
	if err != nil || v != "ok" || calls != 2 {
		t.Fatalf("after failure: v=%v err=%v calls=%d", v, err, calls)
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(10)
	for i := 0; i < 5; i++ {
		c.Put(Key(fmt.Sprintf("k%d", i)), i, 4) // 4 bytes each, budget 10 -> 2 fit
	}
	if n := c.Len(); n != 2 {
		t.Fatalf("entries = %d, want 2", n)
	}
	if _, ok := c.Get("k4"); !ok {
		t.Fatal("most recent entry evicted")
	}
	if _, ok := c.Get("k0"); ok {
		t.Fatal("oldest entry survived")
	}
	// Touching k3 then inserting must evict k4, not k3.
	if _, ok := c.Get("k3"); !ok {
		t.Fatal("k3 missing")
	}
	c.Put("k5", 5, 4)
	if _, ok := c.Get("k3"); !ok {
		t.Fatal("recently used entry evicted")
	}
	if st := c.Stats(); st.Evictions == 0 || st.Bytes > 10 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestOversizedArtifactNotRetained(t *testing.T) {
	c := New(10)
	v, hit, err := c.GetOrCompute(context.Background(), "big", func() (any, int64, error) {
		return "huge", 100, nil
	})
	if err != nil || hit || v != "huge" {
		t.Fatalf("v=%v hit=%v err=%v", v, hit, err)
	}
	if c.Len() != 0 {
		t.Fatal("oversized artifact retained")
	}
}

// TestStampede is the core contract: under heavy concurrency on one key
// the computation runs exactly once and everyone shares its result.
func TestStampede(t *testing.T) {
	c := New(1 << 20)
	var computes atomic.Int64
	gate := make(chan struct{})
	const waiters = 100
	var wg sync.WaitGroup
	hits := atomic.Int64{}
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-gate
			v, hit, err := c.GetOrCompute(context.Background(), "k", func() (any, int64, error) {
				computes.Add(1)
				return 42, 8, nil
			})
			if err != nil || v != 42 {
				t.Errorf("v=%v err=%v", v, err)
			}
			if hit {
				hits.Add(1)
			}
		}()
	}
	close(gate)
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Fatalf("compute ran %d times, want 1", n)
	}
	if hits.Load() != waiters-1 {
		t.Fatalf("hits = %d, want %d", hits.Load(), waiters-1)
	}
}

func TestFollowerCancellation(t *testing.T) {
	c := New(1 << 20)
	leaderIn := make(chan struct{})
	release := make(chan struct{})
	go c.GetOrCompute(context.Background(), "k", func() (any, int64, error) {
		close(leaderIn)
		<-release
		return "v", 1, nil
	})
	<-leaderIn
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := c.GetOrCompute(ctx, "k", func() (any, int64, error) {
		t.Error("follower must not compute")
		return nil, 0, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	close(release)
}

// TestFollowerRecomputesAfterLeaderCancel: a leader whose own context
// ends hands its waiters a context error, not a result; a waiter whose
// context is still live must compute the value itself.
func TestFollowerRecomputesAfterLeaderCancel(t *testing.T) {
	c := New(1 << 20)
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderIn := make(chan struct{})
	leaderErr := make(chan error, 1)
	go func() {
		_, _, err := c.GetOrCompute(leaderCtx, "k", func() (any, int64, error) {
			close(leaderIn)
			<-leaderCtx.Done()
			return nil, 0, leaderCtx.Err()
		})
		leaderErr <- err
	}()
	<-leaderIn
	type outcome struct {
		v   any
		hit bool
		err error
	}
	follower := make(chan outcome, 1)
	go func() {
		v, hit, err := c.GetOrCompute(context.Background(), "k", func() (any, int64, error) {
			return "v", 1, nil
		})
		follower <- outcome{v, hit, err}
	}()
	// A follower counts its hit when it joins the in-flight call.
	for c.Stats().Hits == 0 {
		runtime.Gosched()
	}
	cancelLeader()
	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader err = %v, want context.Canceled", err)
	}
	got := <-follower
	if got.err != nil || got.v != "v" {
		t.Fatalf("follower got v=%v err=%v, want the value it computed", got.v, got.err)
	}
	if v, ok := c.Get("k"); !ok || v != "v" {
		t.Fatalf("recomputed value not cached: %v %v", v, ok)
	}
}
