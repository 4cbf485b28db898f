package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gcsafety/internal/artifact"
	"gcsafety/internal/cluster"
)

// peerNode is one member of an in-process cluster: a real Server behind a
// real httptest listener, so the peer protocol crosses an actual TCP hop.
type peerNode struct {
	srv *Server
	p   *cluster.Peering
	ts  *httptest.Server
	url string
}

func (n *peerNode) post(t *testing.T, path string, body, out any) int {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(n.url+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s response: %v", path, err)
		}
	}
	return resp.StatusCode
}

// startPeerCluster brings up n peered servers. Listeners come up first
// (membership needs the URLs), handlers are attached once every Server
// exists.
func startPeerCluster(t *testing.T, n int) []*peerNode {
	t.Helper()
	nodes := make([]*peerNode, n)
	handlers := make([]atomic.Value, n) // of http.Handler
	for i := range nodes {
		h := &handlers[i]
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			h.Load().(http.Handler).ServeHTTP(w, r)
		}))
		t.Cleanup(ts.Close)
		nodes[i] = &peerNode{ts: ts, url: ts.URL}
	}
	urls := make([]string, n)
	for i, nd := range nodes {
		urls[i] = nd.url
	}
	for i, nd := range nodes {
		var peers []string
		for j, u := range urls {
			if j != i {
				peers = append(peers, u)
			}
		}
		p, err := cluster.New(cluster.Config{Self: nd.url, Peers: peers})
		if err != nil {
			t.Fatal(err)
		}
		nd.p = p
		nd.srv = New(Config{Workers: 4, Peering: p})
		handlers[i].Store(nd.srv.Handler())
	}
	return nodes
}

// ownerOf returns the index of the node owning key (rings agree, so any
// member's view will do).
func ownerOf(t *testing.T, nodes []*peerNode, key artifact.Key) int {
	t.Helper()
	addr, _ := nodes[0].p.Owner(key)
	for i, nd := range nodes {
		if nd.url == addr {
			return i
		}
	}
	t.Fatalf("owner %s is not a cluster member", addr)
	return -1
}

// compileSrcOwnedBy finds a source whose default-compile key the given
// node owns.
func compileSrcOwnedBy(t *testing.T, nodes []*peerNode, want int) (string, artifact.Key) {
	t.Helper()
	for i := 0; i < 1000; i++ {
		src := fmt.Sprintf("int main() { return %d; }", i)
		_, key, err := (&CompileRequest{Source: src}).resolve()
		if err != nil {
			t.Fatal(err)
		}
		if ownerOf(t, nodes, key) == want {
			return src, key
		}
	}
	t.Fatal("no source found for the wanted owner")
	return "", ""
}

func totalCompiles(nodes []*peerNode) uint64 {
	var n uint64
	for _, nd := range nodes {
		n += nd.srv.Compiles()
	}
	return n
}

func TestClusterCompilesOnceAcrossNodes(t *testing.T) {
	nodes := startPeerCluster(t, 3)
	src, key := compileSrcOwnedBy(t, nodes, 2)
	owner := ownerOf(t, nodes, key)

	// The same compile hits every node concurrently, several times each.
	// Exactly one node — the owner — may actually run the compiler.
	var wg sync.WaitGroup
	for _, nd := range nodes {
		for r := 0; r < 3; r++ {
			wg.Add(1)
			go func(nd *peerNode) {
				defer wg.Done()
				var resp CompileResponse
				if code := nd.post(t, "/v1/compile", &CompileRequest{Source: src}, &resp); code != http.StatusOK {
					t.Errorf("compile on %s: status %d", nd.url, code)
				}
			}(nd)
		}
	}
	wg.Wait()
	if got := totalCompiles(nodes); got != 1 {
		t.Fatalf("cluster ran the compiler %d times, want exactly 1", got)
	}
	if nodes[owner].srv.Compiles() != 1 {
		t.Fatal("the compile did not happen on the owning node")
	}
	// Non-owners fetched remotely and should now serve from local cache
	// without touching the network again.
	for i, nd := range nodes {
		if i == owner {
			continue
		}
		st := nd.p.Stats()
		if st.RemoteHits == 0 {
			t.Fatalf("node %d answered without a remote fetch or a compile", i)
		}
		var resp CompileResponse
		nd.post(t, "/v1/compile", &CompileRequest{Source: src}, &resp)
		if !resp.CacheHit {
			t.Fatalf("node %d did not cache the fetched artifact", i)
		}
		if again := nd.p.Stats(); again.RemoteHits != st.RemoteHits {
			t.Fatalf("node %d re-fetched a locally cached artifact", i)
		}
	}
}

// TestClusterAnnotatesElidedOnOwner: the annotate recipe carries every
// option, elide included, so the owner recomputes the requested key and
// annotates once for the cluster instead of refusing the recipe.
func TestClusterAnnotatesElidedOnOwner(t *testing.T) {
	nodes := startPeerCluster(t, 2)
	var req *AnnotateRequest
	for i := 0; i < 1000 && req == nil; i++ {
		r := &AnnotateRequest{Source: fmt.Sprintf("int f(char *p) { return p[%d]; }", i), Elide: true}
		_, key, err := r.resolve()
		if err != nil {
			t.Fatal(err)
		}
		if ownerOf(t, nodes, key) == 1 {
			req = r
		}
	}
	if req == nil {
		t.Fatal("no elided annotate key owned by node 1")
	}
	var resp AnnotateResponse
	if code := nodes[0].post(t, "/v1/annotate", req, &resp); code != http.StatusOK {
		t.Fatalf("annotate: status %d", code)
	}
	if a0, a1 := nodes[0].srv.annotations.Load(), nodes[1].srv.annotations.Load(); a0 != 0 || a1 != 1 {
		t.Fatalf("annotations: requester %d, owner %d; want 0 and 1", a0, a1)
	}
}

func TestClusterFallsBackWhenOwnerDies(t *testing.T) {
	nodes := startPeerCluster(t, 3)
	src, key := compileSrcOwnedBy(t, nodes, 1)
	owner := ownerOf(t, nodes, key)
	nodes[owner].ts.Close() // the owner vanishes mid-flight

	start := time.Now()
	var resp CompileResponse
	requester := (owner + 1) % 3
	if code := nodes[requester].post(t, "/v1/compile", &CompileRequest{Source: src}, &resp); code != http.StatusOK {
		t.Fatalf("compile with dead owner: status %d", code)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("fallback took %v — availability is not bounded", d)
	}
	if nodes[requester].srv.Compiles() != 1 {
		t.Fatal("requester did not fall back to a local compile")
	}
	st := nodes[requester].p.Stats()
	if st.Fallbacks == 0 {
		t.Fatalf("fallback not counted: %+v", st)
	}
	// The artifact is now cached locally: repeating the request must not
	// retry the dead peer or recompile.
	nodes[requester].post(t, "/v1/compile", &CompileRequest{Source: src}, &resp)
	if !resp.CacheHit || nodes[requester].srv.Compiles() != 1 {
		t.Fatal("fallback artifact was not cached locally")
	}
}

func TestPeerGetRefusesKeyMismatch(t *testing.T) {
	nodes := startPeerCluster(t, 2)
	recipe, err := json.Marshal(&CompileRequest{Source: "int main() { return 0; }"})
	if err != nil {
		t.Fatal(err)
	}
	code := nodes[0].post(t, "/v1/peer/get", &cluster.GetRequest{
		Key:    "sha256:not-the-key-this-recipe-hashes-to",
		Family: "compile",
		Recipe: recipe,
	}, nil)
	if code != http.StatusBadRequest {
		t.Fatalf("key mismatch accepted: status %d", code)
	}
	if totalCompiles(nodes) != 0 {
		t.Fatal("mismatched recipe was compiled anyway")
	}
}

func TestPeerGetDoesNotForwardAgain(t *testing.T) {
	// A peer get for a key the receiver does NOT own (stale ring on the
	// sender) must be computed locally, never forwarded — the loop guard.
	nodes := startPeerCluster(t, 2)
	src, key := compileSrcOwnedBy(t, nodes, 1)
	owner := ownerOf(t, nodes, key)
	other := 1 - owner

	recipe, err := json.Marshal(&CompileRequest{Source: src})
	if err != nil {
		t.Fatal(err)
	}
	var out cluster.GetResponse
	if code := nodes[other].post(t, "/v1/peer/get", &cluster.GetRequest{
		Key:    string(key),
		Family: "compile",
		Recipe: recipe,
	}, &out); code != http.StatusOK {
		t.Fatalf("peer get on non-owner: status %d", code)
	}
	if nodes[other].srv.Compiles() != 1 || nodes[owner].srv.Compiles() != 0 {
		t.Fatalf("non-owner forwarded instead of computing: compiles %d/%d",
			nodes[other].srv.Compiles(), nodes[owner].srv.Compiles())
	}
}

func TestPeerPutSeedsOwnerCache(t *testing.T) {
	nodes := startPeerCluster(t, 2)

	// Find a source whose annotate key node 0 owns, encode the artifact
	// with the shared codec, and offer it via /v1/peer/put.
	var (
		src string
		key artifact.Key
	)
	for i := 0; i < 1000; i++ {
		s := fmt.Sprintf("int f() { return %d; }", i)
		_, k, err := (&AnnotateRequest{Source: s}).resolve()
		if err != nil {
			t.Fatal(err)
		}
		if ownerOf(t, nodes, k) == 0 {
			src, key = s, k
			break
		}
	}
	if src == "" {
		t.Fatal("no annotate key owned by node 0")
	}
	a := &annotated{output: "annotated " + src, size: 64}
	kind, payload, ok := artifactCodec().Encode(key, a)
	if !ok {
		t.Fatal("annotated artifact not encodable")
	}
	var pr cluster.PutResponse
	if code := nodes[0].post(t, "/v1/peer/put", &cluster.PutRequest{
		Key: string(key), CodecKind: kind, Payload: payload, Size: 64,
	}, &pr); code != http.StatusOK || !pr.Stored {
		t.Fatalf("peer put: status %d stored %v", code, pr.Stored)
	}

	// The owner now serves the pushed artifact without annotating.
	var resp AnnotateResponse
	nodes[0].post(t, "/v1/annotate", &AnnotateRequest{Source: src}, &resp)
	if !resp.CacheHit || resp.Output != "annotated "+src {
		t.Fatalf("pushed artifact not served: %+v", resp)
	}
	if nodes[0].srv.annotations.Load() != 0 {
		t.Fatal("owner re-annotated a pushed artifact")
	}

	// Undecodable offers are refused, not cached.
	if code := nodes[0].post(t, "/v1/peer/put", &cluster.PutRequest{
		Key: string(key), CodecKind: kind, Payload: []byte("garbage"), Size: 7,
	}, nil); code != http.StatusUnprocessableEntity {
		t.Fatalf("garbage put: status %d", code)
	}
}

func TestPeerEndpointsRequireClustering(t *testing.T) {
	s := New(Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, path := range []string{"/v1/peer/get", "/v1/peer/put", "/v1/peer/update"} {
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader([]byte("{}")))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s on standalone node: status %d", path, resp.StatusCode)
		}
	}
}

func TestPeerUpdateRebalancesLive(t *testing.T) {
	nodes := startPeerCluster(t, 3)
	var out PeerUpdateResponse
	// Drop node 2 from node 0's view.
	if code := nodes[0].post(t, "/v1/peer/update", &PeerUpdateRequest{
		Peers: []string{nodes[1].url},
	}, &out); code != http.StatusOK {
		t.Fatalf("peer update: status %d", code)
	}
	if len(out.Members) != 2 {
		t.Fatalf("members after update: %v", out.Members)
	}
	// Metrics expose the cluster section with the rebalance counted.
	resp, err := http.Get(nodes[0].url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Cluster == nil || snap.Cluster.Rebalances != 1 || len(snap.Cluster.Members) != 2 {
		t.Fatalf("cluster metrics: %+v", snap.Cluster)
	}
}
