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
	"gcsafety/internal/gcsafe"
	"gcsafety/internal/pipeline"
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

// programKey is the key of src's default program: the Optimize stage
// key that /v1/compile serves {"source": src} under.
func programKey(t *testing.T, src string) artifact.Key {
	t.Helper()
	opts, err := pipeline.BuildSpec{}.BuildOptions()
	if err != nil {
		t.Fatal(err)
	}
	return opts.Key(unitName(""), src)
}

// compileSrcOwnedBy finds a source whose default-compile key the given
// node owns.
func compileSrcOwnedBy(t *testing.T, nodes []*peerNode, want int) (string, artifact.Key) {
	t.Helper()
	for i := 0; i < 1000; i++ {
		src := fmt.Sprintf("int main() { return %d; }", i)
		key := programKey(t, src)
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
		r := &AnnotateRequest{
			Source:       fmt.Sprintf("int f(char *p) { return p[%d]; }", i),
			AnnotateSpec: pipeline.AnnotateSpec{Elide: true},
		}
		opts, err := r.AnnotateOptions()
		if err != nil {
			t.Fatal(err)
		}
		if ownerOf(t, nodes, pipeline.AnnotateKey(unitName(""), r.Source, opts)) == 1 {
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
	recipe, err := json.Marshal(&pipeline.Recipe{Stage: pipeline.StageOptimize, Name: "input.c", Source: "int main() { return 0; }"})
	if err != nil {
		t.Fatal(err)
	}
	code := nodes[0].post(t, "/v1/peer/get", &cluster.GetRequest{
		Key:    "sha256:not-the-key-this-recipe-hashes-to",
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

	recipe, err := json.Marshal(&pipeline.Recipe{Stage: pipeline.StageOptimize, Name: "input.c", Source: src})
	if err != nil {
		t.Fatal(err)
	}
	var out cluster.GetResponse
	if code := nodes[other].post(t, "/v1/peer/get", &cluster.GetRequest{
		Key:    string(key),
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

	// Find a source whose annotate key node 0 owns, have a standalone
	// server annotate it, encode its artifact with the shared codec, and
	// offer it via /v1/peer/put.
	var (
		src string
		key artifact.Key
	)
	for i := 0; i < 1000; i++ {
		s := fmt.Sprintf("int f() { return %d; }", i)
		k := pipeline.AnnotateKey(unitName(""), s, gcsafe.Options{})
		opts, err := pipeline.BuildSpec{Annotate: "safe"}.BuildOptions()
		if err != nil {
			t.Fatal(err)
		}
		if ownerOf(t, nodes, k) == 0 && ownerOf(t, nodes, opts.Key(unitName(""), s)) == 0 {
			src, key = s, k
			break
		}
	}
	if src == "" {
		t.Fatal("no annotate key owned by node 0")
	}
	elsewhere, ts := newTestServer(t, Config{})
	var want AnnotateResponse
	if resp, data := postJSON(t, ts.URL+"/v1/annotate", &AnnotateRequest{Source: src}); resp.StatusCode != http.StatusOK {
		t.Fatalf("annotate elsewhere: status %d: %s", resp.StatusCode, data)
	} else {
		unmarshalInto(t, data, &want)
	}
	a, ok := elsewhere.cache.Get(key)
	if !ok {
		t.Fatal("no annotate artifact under the key")
	}
	kind, payload, ok := elsewhere.codec.Encode(key, a)
	if !ok {
		t.Fatal("annotate artifact not encodable")
	}
	var pr cluster.PutResponse
	if code := nodes[0].post(t, "/v1/peer/put", &cluster.PutRequest{
		Key: string(key), CodecKind: kind, Payload: payload,
	}, &pr); code != http.StatusOK || !pr.Stored {
		t.Fatalf("peer put: status %d stored %v", code, pr.Stored)
	}

	// The owner now serves the pushed artifact without annotating.
	var resp AnnotateResponse
	nodes[0].post(t, "/v1/annotate", &AnnotateRequest{Source: src}, &resp)
	if !resp.CacheHit || resp.Output != want.Output {
		t.Fatalf("pushed artifact not served: %+v", resp)
	}
	if nodes[0].srv.annotations.Load() != 0 {
		t.Fatal("owner re-annotated a pushed artifact")
	}
	// The pushed report has no tree; a compile of the annotated program
	// on its owner annotates a fresh clone for Codegen.
	var cr CompileResponse
	if code := nodes[0].post(t, "/v1/compile", &CompileRequest{Source: src, BuildSpec: pipeline.BuildSpec{Annotate: "safe"}}, &cr); code != http.StatusOK || cr.Size == 0 {
		t.Fatalf("compile over the pushed report: status %d, %+v", code, cr)
	}

	// Undecodable offers are refused, not cached.
	if code := nodes[0].post(t, "/v1/peer/put", &cluster.PutRequest{
		Key: string(key), CodecKind: kind, Payload: []byte("garbage"),
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

// TestClusterRunsOnceAcrossNodes: the same /v1/run posted to each node
// of a cluster runs once cluster-wide — on the run key's owner — and
// builds its program once; every node answers with the same output.
func TestClusterRunsOnceAcrossNodes(t *testing.T) {
	nodes := startPeerCluster(t, 3)
	req := &RunRequest{CompileRequest: CompileRequest{Name: "once.c", Source: helloC}, RunSpec: pipeline.RunSpec{GCEvery: 64}}
	var outputs []string
	for _, nd := range nodes {
		var resp RunResponse
		if code := nd.post(t, "/v1/run", req, &resp); code != http.StatusOK {
			t.Fatalf("run on %s: status %d", nd.url, code)
		}
		outputs = append(outputs, resp.Output)
	}
	var runs uint64
	for _, nd := range nodes {
		runs += nd.srv.metrics.runs.programs.Load()
	}
	if runs != 1 || totalCompiles(nodes) != 1 {
		t.Fatalf("cluster ran %d times and compiled %d times, want 1 and 1", runs, totalCompiles(nodes))
	}
	if outputs[0] != "hello, service\n" || outputs[1] != outputs[0] || outputs[2] != outputs[0] {
		t.Fatalf("outputs %q", outputs)
	}
}

// TestClusterHeapdumpsOnceAcrossNodes is the /v1/heapdump twin: one
// profiled run, and one snapshot, cluster-wide.
func TestClusterHeapdumpsOnceAcrossNodes(t *testing.T) {
	nodes := startPeerCluster(t, 3)
	req := &HeapdumpRequest{RunRequest: RunRequest{CompileRequest: CompileRequest{Name: "dump.c", Source: heapdumpC}}}
	var live []int
	for _, nd := range nodes {
		var resp HeapdumpResponse
		if code := nd.post(t, "/v1/heapdump", req, &resp); code != http.StatusOK {
			t.Fatalf("heapdump on %s: status %d", nd.url, code)
		}
		live = append(live, resp.LiveObjects)
	}
	var runs, snapshots uint64
	for _, nd := range nodes {
		runs += nd.srv.metrics.runs.programs.Load()
		snapshots += nd.srv.metrics.heap.snapshots.Load()
	}
	if runs != 1 || snapshots != 1 {
		t.Fatalf("cluster ran %d times and took %d snapshots, want 1 and 1", runs, snapshots)
	}
	if live[0] == 0 || live[1] != live[0] || live[2] != live[0] {
		t.Fatalf("live objects %v", live)
	}
}

// runKey is the key of the run /v1/run serves req under, with its step
// budget at steps.
func runKey(t *testing.T, req *RunRequest, steps uint64) artifact.Key {
	t.Helper()
	opts, run, err := pipeline.Spec{BuildSpec: req.BuildSpec, RunSpec: req.RunSpec}.Options()
	if err != nil {
		t.Fatal(err)
	}
	run.MaxInstrs = steps
	return run.Key(opts.Key(unitName(req.Name), req.Source))
}

// TestPeerGetBoundsRunSteps: a peer's run recipe must keep its step
// budget within this node's ceiling, as a public request's is clamped to
// it; one that does not is refused before anything runs.
func TestPeerGetBoundsRunSteps(t *testing.T) {
	nodes := startPeerCluster(t, 2)
	req := &RunRequest{CompileRequest: CompileRequest{Source: helloC}}
	ceiling := nodes[0].srv.cfg.MaxSteps
	for _, steps := range []uint64{0, ceiling + 1, ceiling} {
		recipe, err := json.Marshal(&pipeline.Recipe{
			Stage: pipeline.StageExecute, Name: unitName(""), Source: helloC, MaxSteps: steps,
		})
		if err != nil {
			t.Fatal(err)
		}
		code := nodes[0].post(t, "/v1/peer/get", &cluster.GetRequest{Key: string(runKey(t, req, steps)), Recipe: recipe}, nil)
		if want := map[bool]int{true: http.StatusOK, false: http.StatusBadRequest}[steps == ceiling]; code != want {
			t.Fatalf("run recipe with max_steps %d: status %d, want %d", steps, code, want)
		}
	}
	if runs := nodes[0].srv.metrics.runs.programs.Load(); runs != 1 {
		t.Fatalf("owner ran %d times, want 1 (the recipe within the ceiling)", runs)
	}
}

// TestClusterRunsFaultedRunOnce: a run that ends in a fault is data, and
// crosses the peer wire like a clean one: posted to every node, it runs
// once, on its program's owner, and no node falls back.
func TestClusterRunsFaultedRunOnce(t *testing.T) {
	nodes := startPeerCluster(t, 3)
	req := &RunRequest{CompileRequest: CompileRequest{Name: "limit.c", Source: loopC}, MaxSteps: 5000}
	var faults []string
	for _, nd := range nodes {
		var resp RunResponse
		if code := nd.post(t, "/v1/run", req, &resp); code != http.StatusOK || !resp.StepLimit {
			t.Fatalf("run on %s: status %d, %+v", nd.url, code, resp)
		}
		faults = append(faults, resp.Fault)
	}
	if faults[1] != faults[0] || faults[2] != faults[0] {
		t.Fatalf("faults %q", faults)
	}
	opts, err := req.BuildOptions()
	if err != nil {
		t.Fatal(err)
	}
	owner := ownerOf(t, nodes, opts.Key(req.Name, req.Source))
	for i, nd := range nodes {
		want := map[bool]uint64{true: 1, false: 0}[i == owner]
		if runs := nd.srv.metrics.runs.programs.Load(); runs != want {
			t.Errorf("node %d ran %d times, want %d", i, runs, want)
		}
		if fb := nd.p.Stats().Fallbacks; fb != 0 {
			t.Errorf("node %d fell back %d times", i, fb)
		}
	}
}

// TestPeerWaitIsNotChargedToTheRun: a run's timeout bounds its execution,
// not the wait on an owner that then fails to serve it, so the fallback
// run gets the whole budget.
func TestPeerWaitIsNotChargedToTheRun(t *testing.T) {
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(400 * time.Millisecond)
		http.Error(w, `{"error": "not served"}`, http.StatusUnprocessableEntity)
	}))
	defer slow.Close()
	self := httptest.NewUnstartedServer(nil)
	self.Start()
	defer self.Close()
	p, err := cluster.New(cluster.Config{Self: self.URL, Peers: []string{slow.URL}})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Workers: 2, Peering: p})
	self.Config.Handler = srv.Handler()

	var req *RunRequest
	for i := 0; i < 1000 && req == nil; i++ {
		r := &RunRequest{CompileRequest: CompileRequest{Source: fmt.Sprintf("int main() { print_int(%d); return 0; }", i)}, TimeoutMs: 300}
		opts, err := r.BuildOptions()
		if err != nil {
			t.Fatal(err)
		}
		if _, own := p.Owner(opts.Key(unitName(""), r.Source)); !own {
			req = r
		}
	}
	if req == nil {
		t.Fatal("no program key owned by the slow peer")
	}
	resp, data := postJSON(t, self.URL+"/v1/run", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run after a slow owner: %d %s", resp.StatusCode, data)
	}
	if st := p.Stats(); st.Fallbacks != 2 {
		t.Fatalf("fallbacks %d, want 2 (the program and the run)", st.Fallbacks)
	}
}

// TestPeerGetRunDoesNotForward: a run recipe sent to a node that does not
// own its program (a stale ring on the sender) builds the program there;
// the receiver never asks the program's owner, so two stale rings cannot
// wait on each other.
func TestPeerGetRunDoesNotForward(t *testing.T) {
	nodes := startPeerCluster(t, 2)
	src, key := compileSrcOwnedBy(t, nodes, 1)
	owner := ownerOf(t, nodes, key)
	other := 1 - owner
	steps := nodes[other].srv.cfg.MaxSteps
	recipe, err := json.Marshal(&pipeline.Recipe{Stage: pipeline.StageExecute, Name: unitName(""), Source: src, MaxSteps: steps})
	if err != nil {
		t.Fatal(err)
	}
	req := &RunRequest{CompileRequest: CompileRequest{Source: src}}
	if code := nodes[other].post(t, "/v1/peer/get", &cluster.GetRequest{Key: string(runKey(t, req, steps)), Recipe: recipe}, nil); code != http.StatusOK {
		t.Fatalf("run recipe on the program's non-owner: status %d", code)
	}
	if nodes[other].srv.Compiles() != 1 || nodes[owner].srv.Compiles() != 0 || nodes[other].p.Stats().RemoteHits != 0 {
		t.Fatalf("receiver forwarded the program: compiles %d here, %d on the owner",
			nodes[other].srv.Compiles(), nodes[owner].srv.Compiles())
	}
}
