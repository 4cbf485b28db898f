package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"gcsafety/internal/artifact"
	"gcsafety/internal/faultinject"
)

// postFaulted posts a JSON body with X-Fault-Inject / X-Fault-Seed set.
func postFaulted(t *testing.T, url, spec, seed string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if spec != "" {
		req.Header.Set(faultHeader, spec)
	}
	if seed != "" {
		req.Header.Set(faultSeedHeader, seed)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func metricsSnapshot(t *testing.T, base string) Snapshot {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestHandlerPanicBecomes500 is the satellite regression test: a
// panicking handler must produce a 500 (not a dropped connection), bump
// the panic counter, and leave a stack in /metrics.
func TestHandlerPanicBecomes500(t *testing.T) {
	_, ts := newTestServer(t, Config{AllowFaultHeaders: true})
	resp, data := postFaulted(t, ts.URL+"/v1/annotate", "server.handler=panic,msg=test-panic", "",
		map[string]any{"source": helloC})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500; body %s", resp.StatusCode, data)
	}
	if !bytes.Contains(data, []byte("panic recovered")) {
		t.Fatalf("body does not acknowledge the recovery: %s", data)
	}
	snap := metricsSnapshot(t, ts.URL)
	if snap.Panics != 1 {
		t.Fatalf("panic counter = %d, want 1", snap.Panics)
	}
	if snap.LastPanic == nil || snap.LastPanic.Endpoint != "/v1/annotate" ||
		!strings.Contains(snap.LastPanic.Value, "test-panic") || snap.LastPanic.Stack == "" {
		t.Fatalf("last_panic not captured: %+v", snap.LastPanic)
	}
	if snap.Endpoints["/v1/annotate"].Errors == 0 {
		t.Fatal("panic not recorded as an endpoint error")
	}

	// The daemon must still serve traffic afterwards.
	resp2, data2 := postJSON(t, ts.URL+"/v1/annotate", map[string]any{"source": helloC})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("daemon unhealthy after recovered panic: %d %s", resp2.StatusCode, data2)
	}
}

func TestInjectedHandlerError(t *testing.T) {
	_, ts := newTestServer(t, Config{AllowFaultHeaders: true})
	resp, data := postFaulted(t, ts.URL+"/v1/check", "server.handler=error,msg=synthetic", "7",
		map[string]any{"source": helloC})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500; body %s", resp.StatusCode, data)
	}
	if !bytes.Contains(data, []byte("synthetic")) {
		t.Fatalf("injected message lost: %s", data)
	}
}

func TestBadFaultHeaderIs400(t *testing.T) {
	_, ts := newTestServer(t, Config{AllowFaultHeaders: true})
	resp, _ := postFaulted(t, ts.URL+"/v1/check", "not-a-spec", "", map[string]any{"source": helloC})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad spec: status = %d, want 400", resp.StatusCode)
	}
	resp2, _ := postFaulted(t, ts.URL+"/v1/check", "server.handler=error", "NaN", map[string]any{"source": helloC})
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad seed: status = %d, want 400", resp2.StatusCode)
	}
	// A 49-day sleep must not parse: ms is capped.
	resp3, _ := postFaulted(t, ts.URL+"/v1/check", "server.handler=sleep,ms=4294967295", "", map[string]any{"source": helloC})
	if resp3.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized ms: status = %d, want 400", resp3.StatusCode)
	}
}

// TestFaultHeaderRequiresOptIn: without Config.AllowFaultHeaders the
// header is refused outright — any reachable client being able to
// panic, 500 or stall the daemon is not an acceptable default.
func TestFaultHeaderRequiresOptIn(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, data := postFaulted(t, ts.URL+"/v1/check", "server.handler=error,msg=forbidden", "",
		map[string]any{"source": helloC})
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("status = %d, want 403; body %s", resp.StatusCode, data)
	}
	if !bytes.Contains(data, []byte("allow-fault-headers")) {
		t.Fatalf("refusal does not name the opt-in flag: %s", data)
	}
	// The same request without the header is served normally.
	resp2, data2 := postJSON(t, ts.URL+"/v1/check", map[string]any{"source": helloC})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("clean request: %d %s", resp2.StatusCode, data2)
	}
}

// TestInjectedRunFaultIsData: a gc.alloc fault inside a /v1/run program
// is a simulated-program failure — HTTP 200 with the fault reported in
// the body, exactly like an organic memory fault.
func TestInjectedRunFaultIsData(t *testing.T) {
	_, ts := newTestServer(t, Config{AllowFaultHeaders: true})
	src := `
int main() {
    int i;
    for (i = 0; i < 100; i = i + 1) {
        int *p = (int *)GC_malloc(64);
        *p = i;
    }
    return 0;
}
`
	resp, data := postFaulted(t, ts.URL+"/v1/run", "gc.alloc=error,after=5", "",
		map[string]any{"source": src})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200; body %s", resp.StatusCode, data)
	}
	var rr RunResponse
	unmarshalInto(t, data, &rr)
	if rr.Fault == "" || !strings.Contains(rr.Fault, "injected") {
		t.Fatalf("fault not reported: %+v", rr)
	}
}

func TestDrainReturns503WithRetryAfter(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	// Before drain: readiness and traffic both fine.
	if resp, _ := http.Get(ts.URL + "/readyz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz before drain: %d", resp.StatusCode)
	}
	s.StartDrain()
	resp, data := postJSON(t, ts.URL+"/v1/check", map[string]any{"source": helloC})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining request: status = %d, want 503; body %s", resp.StatusCode, data)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	ready, _ := http.Get(ts.URL + "/readyz")
	if ready.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz while draining: %d, want 503", ready.StatusCode)
	}
	var body map[string]string
	_ = json.NewDecoder(ready.Body).Decode(&body)
	ready.Body.Close()
	if body["status"] != "draining" {
		t.Fatalf("/readyz body: %v", body)
	}
	// Liveness is unaffected: the process is healthy, just not ready.
	if resp, _ := http.Get(ts.URL + "/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz while draining: %d", resp.StatusCode)
	}
	snap := metricsSnapshot(t, ts.URL)
	if snap.Drained == 0 || !snap.Draining {
		t.Fatalf("drain not visible in metrics: drained=%d draining=%v", snap.Drained, snap.Draining)
	}
}

// TestReadyzSaturated drives the worker pool to queue saturation and
// asserts readiness flips while liveness stays green.
func TestReadyzSaturated(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1, RunTimeout: 5 * time.Second})
	// One long-running request occupies the worker; a second fills the
	// queue of depth 1.
	done := make(chan struct{}, 2)
	slow := map[string]any{"source": loopC, "timeout_ms": 2000}
	for i := 0; i < 2; i++ {
		go func() {
			defer func() { done <- struct{}{} }()
			postJSON(t, ts.URL+"/v1/run", slow)
		}()
	}
	// Poll until the queue reports saturated (the two requests are racing
	// us into their slots).
	deadline := time.Now().Add(3 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		code := resp.StatusCode
		var body map[string]string
		_ = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if code == http.StatusServiceUnavailable && body["status"] == "saturated" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("readyz never reported saturation (last: %d %v)", code, body)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if resp, _ := http.Get(ts.URL + "/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz under saturation: %d", resp.StatusCode)
	}
	<-done
	<-done
}

// TestGlobalFaultSetReachesHandlers: env-style (global) activation works
// without any header.
func TestGlobalFaultSetReachesHandlers(t *testing.T) {
	defer faultinject.SetGlobal(nil)
	set, err := faultinject.Parse("server.handler=error,times=1,msg=global-fault", 3)
	if err != nil {
		t.Fatal(err)
	}
	faultinject.SetGlobal(set)
	_, ts := newTestServer(t, Config{})
	resp, data := postJSON(t, ts.URL+"/v1/check", map[string]any{"source": helloC})
	if resp.StatusCode != http.StatusInternalServerError || !bytes.Contains(data, []byte("global-fault")) {
		t.Fatalf("global fault missed: %d %s", resp.StatusCode, data)
	}
	// times=1 exhausted: service recovers.
	resp2, _ := postJSON(t, ts.URL+"/v1/check", map[string]any{"source": helloC})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("after exhausted rule: %d", resp2.StatusCode)
	}
}

// TestDiskTierPersistsAcrossServers is the in-process half of the
// restart story (the full kill -9 test lives in cmd/gcsafed): two Server
// instances sharing a CacheDir, the second serving the first's compile
// from disk without recompiling.
func TestDiskTierPersistsAcrossServers(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := newTestServer(t, Config{CacheDir: dir})
	if s1.DiskErr() != nil {
		t.Fatal(s1.DiskErr())
	}
	body := map[string]any{"source": helloC, "optimize": true, "annotate": "safe"}
	resp, data := postJSON(t, ts1.URL+"/v1/run", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first run: %d %s", resp.StatusCode, data)
	}
	var rr RunResponse
	unmarshalInto(t, data, &rr)
	if rr.CacheHit {
		t.Fatal("first run claimed a cache hit")
	}
	if s1.Compiles() != 1 {
		t.Fatalf("compiles = %d, want 1", s1.Compiles())
	}
	// A clean run is a disk artifact too, heap snapshot included.
	dump := map[string]any{"source": heapdumpC, "optimize": true}
	var dumps [2]HeapdumpResponse
	resp, data = postJSON(t, ts1.URL+"/v1/heapdump", dump)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first heapdump: %d %s", resp.StatusCode, data)
	}
	unmarshalInto(t, data, &dumps[0])

	s2, ts2 := newTestServer(t, Config{CacheDir: dir})
	if s2.DiskErr() != nil {
		t.Fatal(s2.DiskErr())
	}
	if s2.DiskRecovery().Verified == 0 {
		t.Fatalf("recovery verified nothing: %+v", s2.DiskRecovery())
	}
	resp2, data2 := postJSON(t, ts2.URL+"/v1/run", body)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second server run: %d %s", resp2.StatusCode, data2)
	}
	var rr2 RunResponse
	unmarshalInto(t, data2, &rr2)
	if !rr2.CacheHit {
		t.Fatalf("restart did not preserve the warm artifact: %s", data2)
	}
	if rr2.Output != rr.Output || rr2.Size != rr.Size {
		t.Fatalf("disk-restored artifact diverged: %+v vs %+v", rr2, rr)
	}
	if s2.Compiles() != 0 {
		t.Fatalf("second server recompiled %d times", s2.Compiles())
	}
	resp, data = postJSON(t, ts2.URL+"/v1/heapdump", dump)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second server heapdump: %d %s", resp.StatusCode, data)
	}
	unmarshalInto(t, data, &dumps[1])
	if dumps[0].CacheHit || !dumps[1].CacheHit || dumps[1].LiveObjects != dumps[0].LiveObjects ||
		dumps[1].LiveBytes != dumps[0].LiveBytes || dumps[1].Snapshot.Trigger != dumps[0].Snapshot.Trigger {
		t.Fatalf("heapdump across the restart: %+v, then %+v; want the run's snapshot restored", dumps[0], dumps[1])
	}
	st := s2.CacheStats()
	if st.DiskHits == 0 || st.Disk == nil {
		t.Fatalf("disk hit not accounted: %+v", st)
	}
}

// TestUnopenableCacheDirDegradesGracefully: a file where the cache
// directory should be is not fatal — the daemon serves memory-only and
// reports the failure.
func TestUnopenableCacheDirDegradesGracefully(t *testing.T) {
	bad := t.TempDir() + "/occupied"
	if err := os.WriteFile(bad, []byte("a file, not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Config{CacheDir: bad})
	if s.DiskErr() == nil {
		t.Fatal("disk error not reported")
	}
	resp, data := postJSON(t, ts.URL+"/v1/check", map[string]any{"source": helloC})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("memory-only degradation failed: %d %s", resp.StatusCode, data)
	}
	snap := metricsSnapshot(t, ts.URL)
	if snap.DiskError == "" {
		t.Fatal("disk error not surfaced in /metrics")
	}
}

// TestCompileWritesOneProgramEntry: a /v1/compile with a disk tier files
// its program once, as the pipeline's stage artifact, not again as a
// server product.
func TestCompileWritesOneProgramEntry(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, Config{CacheDir: dir})
	body := map[string]any{"name": "one.c", "source": helloC, "annotate": "safe", "optimize": true}
	if resp, data := postJSON(t, ts.URL+"/v1/compile", body); resp.StatusCode != http.StatusOK {
		t.Fatalf("compile: %d %s", resp.StatusCode, data)
	}
	disk, _, err := artifact.OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	names, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var programs []string
	for _, de := range names {
		if de.IsDir() {
			continue
		}
		kind, _, err := disk.Get(context.Background(), artifact.Key(de.Name()))
		if err != nil {
			t.Fatalf("entry %s: %v", de.Name(), err)
		}
		if strings.Contains(kind, "prog") || strings.Contains(kind, "post") || strings.Contains(kind, "compile") {
			programs = append(programs, kind)
		}
	}
	if len(programs) != 1 {
		t.Fatalf("program entries on disk: %v, want exactly one", programs)
	}
}

// TestRestoredReportCompiles: an Annotate artifact restored from disk
// carries the report without its tree, and a compile that misses Codegen
// on it annotates a fresh clone instead of compiling no tree.
func TestRestoredReportCompiles(t *testing.T) {
	dir := t.TempDir()
	_, ts1 := newTestServer(t, Config{CacheDir: dir})
	if resp, data := postJSON(t, ts1.URL+"/v1/annotate", map[string]any{"source": helloC}); resp.StatusCode != http.StatusOK {
		t.Fatalf("annotate: %d %s", resp.StatusCode, data)
	}
	_, ts2 := newTestServer(t, Config{CacheDir: dir})
	for _, optimize := range []bool{false, true} {
		body := map[string]any{"source": helloC, "annotate": "safe", "optimize": optimize}
		resp, data := postJSON(t, ts2.URL+"/v1/run", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("run after restart (optimize %v): %d %s", optimize, resp.StatusCode, data)
		}
		var rr RunResponse
		unmarshalInto(t, data, &rr)
		if rr.Output != "hello, service\n" {
			t.Fatalf("run after restart (optimize %v): %+v", optimize, rr)
		}
	}
}
