package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"gcsafety/internal/artifact"
	"gcsafety/internal/client"
	"gcsafety/internal/faultinject"
)

// fakePeer serves the peer protocol: every get answers with a canned
// artifact, every put records what arrived.
func fakePeer(t *testing.T) (*httptest.Server, *atomic.Int64, *atomic.Int64) {
	t.Helper()
	var gets, puts atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/peer/get", func(w http.ResponseWriter, r *http.Request) {
		gets.Add(1)
		var req GetRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		_ = json.NewEncoder(w).Encode(GetResponse{
			CodecKind: "blob/v1",
			Payload:   []byte("artifact-for-" + req.Key),
			CacheHit:  true,
		})
	})
	mux.HandleFunc("/v1/peer/put", func(w http.ResponseWriter, r *http.Request) {
		puts.Add(1)
		_ = json.NewEncoder(w).Encode(PutResponse{Stored: true})
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts, &gets, &puts
}

// ownKey finds a key the given member owns on p's ring.
func ownKey(t *testing.T, p *Peering, member string) artifact.Key {
	t.Helper()
	for i := 0; i < 10000; i++ {
		k := artifact.NewKey("test").Int(int64(i)).Sum()
		if addr, _ := p.Owner(k); addr == member {
			return k
		}
	}
	t.Fatalf("no key owned by %s found", member)
	return ""
}

func TestFetchSelfOwnedIsLocal(t *testing.T) {
	p, err := New(Config{Self: "http://self"})
	if err != nil {
		t.Fatal(err)
	}
	resp, remote, err := p.Fetch(context.Background(), "anykey", "anykey", map[string]any{})
	if resp != nil || remote || err != nil {
		t.Fatalf("single-node fetch: resp=%v remote=%v err=%v", resp, remote, err)
	}
	if st := p.Stats(); st.OwnedLocal != 1 || st.RemoteHits != 0 || st.Fallbacks != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestFetchFromOwningPeer(t *testing.T) {
	ts, gets, _ := fakePeer(t)
	p, err := New(Config{Self: "http://self", Peers: []string{ts.URL}})
	if err != nil {
		t.Fatal(err)
	}
	key := ownKey(t, p, ts.URL)
	resp, remote, err := p.Fetch(context.Background(), key, key, map[string]any{"name": "x.c"})
	if err != nil || !remote {
		t.Fatalf("fetch: remote=%v err=%v", remote, err)
	}
	if resp.CodecKind != "blob/v1" || string(resp.Payload) != "artifact-for-"+string(key) || !resp.CacheHit {
		t.Fatalf("response: %+v", resp)
	}
	if gets.Load() != 1 {
		t.Fatalf("peer saw %d gets", gets.Load())
	}
	st := p.Stats()
	if st.RemoteHits != 1 || st.Fallbacks != 0 || len(st.Peers) != 1 || st.Peers[0].GetHits != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestFetchDeadPeerFallsBack(t *testing.T) {
	ts, _, _ := fakePeer(t)
	dead := ts.URL
	ts.Close() // nothing listens anymore: connection refused
	p, err := New(Config{Self: "http://self", Peers: []string{dead}})
	if err != nil {
		t.Fatal(err)
	}
	key := ownKey(t, p, dead)
	start := time.Now()
	_, remote, ferr := p.Fetch(context.Background(), key, key, map[string]any{})
	if !remote || !errors.Is(ferr, ErrPeerUnavailable) {
		t.Fatalf("fetch against dead peer: remote=%v err=%v", remote, ferr)
	}
	if d := time.Since(start); d > 3*time.Second {
		t.Fatalf("fallback took %v — the peer timeout did not bound the ladder", d)
	}
	if st := p.Stats(); st.Fallbacks != 1 || st.Peers[0].GetErrors != 1 {
		t.Fatalf("stats: %+v", st)
	}

	// Enough failures open the per-peer breaker; fetches then fast-fail
	// and the peer is reported unhealthy.
	for i := 0; i < 4; i++ {
		_, _, _ = p.Fetch(context.Background(), key, key, map[string]any{})
	}
	st := p.Stats()
	if !st.Peers[0].BreakerOpen {
		t.Fatalf("breaker not open after repeated failures: %+v", st.Peers[0])
	}
}

func TestFetchFaultPointSeversLink(t *testing.T) {
	ts, gets, _ := fakePeer(t)
	p, err := New(Config{Self: "http://self", Peers: []string{ts.URL}})
	if err != nil {
		t.Fatal(err)
	}
	set, err := faultinject.Parse("cluster.peer.get=error,msg=severed", 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx := faultinject.WithContext(context.Background(), set)
	key := ownKey(t, p, ts.URL)
	_, remote, ferr := p.Fetch(ctx, key, key, map[string]any{})
	if !remote || !errors.Is(ferr, ErrPeerUnavailable) || !errors.Is(ferr, faultinject.ErrInjected) {
		t.Fatalf("injected sever: remote=%v err=%v", remote, ferr)
	}
	if gets.Load() != 0 {
		t.Fatal("fault point did not prevent the network call")
	}
	if st := p.Stats(); st.Fallbacks != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestPushToOwner(t *testing.T) {
	ts, _, puts := fakePeer(t)
	p, err := New(Config{Self: "http://self", Peers: []string{ts.URL}})
	if err != nil {
		t.Fatal(err)
	}
	key := ownKey(t, p, ts.URL)
	if err := p.Push(context.Background(), key, key, "blob/v1", []byte("x")); err != nil {
		t.Fatalf("push: %v", err)
	}
	if puts.Load() != 1 {
		t.Fatalf("peer saw %d puts", puts.Load())
	}
	// Pushing a self-owned key is a no-op, not an error.
	self := ownKey(t, p, p.Self())
	if err := p.Push(context.Background(), self, self, "blob/v1", []byte("x")); err != nil {
		t.Fatalf("self push: %v", err)
	}
	if st := p.Stats(); st.Pushes != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestUpdatePeersRebalances(t *testing.T) {
	a, _, _ := fakePeer(t)
	b, _, _ := fakePeer(t)
	p, err := New(Config{Self: "http://self", Peers: []string{a.URL, b.URL}})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(p.Members()); got != 3 {
		t.Fatalf("members: %v", p.Members())
	}

	// Record ownership, then drop b: keys owned by self or a must not
	// move (the consistent-hashing contract), b's keys must redistribute.
	type owned struct {
		addr string
		self bool
	}
	before := map[artifact.Key]owned{}
	for i := 0; i < 500; i++ {
		k := artifact.NewKey("test").Int(int64(i)).Sum()
		addr, self := p.Owner(k)
		before[k] = owned{addr, self}
	}
	p.UpdatePeers([]string{a.URL})
	movedFromB := 0
	for k, was := range before {
		addr, self := p.Owner(k)
		if was.addr == b.URL {
			movedFromB++
			if addr == b.URL {
				t.Fatalf("removed peer still owns %s", k)
			}
			continue
		}
		if addr != was.addr || self != was.self {
			t.Fatalf("key %s moved %+v -> (%s,%v) though its owner survived", k, was, addr, self)
		}
	}
	if movedFromB == 0 {
		t.Fatal("b owned nothing; test proves nothing")
	}
	if st := p.Stats(); st.Rebalances != 1 || len(st.Peers) != 1 {
		t.Fatalf("stats after rebalance: %+v", st)
	}
	// A no-op update (same membership) is not a rebalance.
	p.UpdatePeers([]string{a.URL, "http://self"})
	if st := p.Stats(); st.Rebalances != 1 {
		t.Fatalf("no-op update counted as rebalance: %+v", st)
	}
	// Adding b back keeps a's client (and its counters) intact.
	p.UpdatePeers([]string{a.URL, b.URL})
	if st := p.Stats(); st.Rebalances != 2 || len(st.Peers) != 2 {
		t.Fatalf("stats after re-add: %+v", st)
	}
}

func TestPeerClientDefaultsBiasFastFailover(t *testing.T) {
	cfg := Config{Self: "http://self"}
	cc := cfg.peerClientConfig("http://peer")
	if cc.MaxAttempts != 2 || cc.BreakerThreshold != 3 {
		t.Fatalf("defaults: %+v", cc)
	}
	// Distinct peers get distinct deterministic jitter seeds.
	if cfg.peerClientConfig("http://peer-a").JitterSeed == cfg.peerClientConfig("http://peer-b").JitterSeed {
		t.Fatal("peer jitter seeds collide")
	}
	// An explicit client config wins.
	cfg.Client = client.Config{MaxAttempts: 7}
	if cfg.peerClientConfig("http://peer").MaxAttempts != 7 {
		t.Fatal("explicit MaxAttempts overridden")
	}
}
