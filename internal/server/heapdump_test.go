package server

import (
	"io"
	"net/http"
	"strings"
	"testing"

	"gcsafety/internal/heapdump"
)

// heapdumpC keeps an 8-node list alive through a global, so the snapshot
// has rooted objects with recorded allocation sites.
const heapdumpC = `
struct node { int v; struct node *next; };
struct node *head;
int main() {
    int i;
    for (i = 0; i < 8; i++) {
        struct node *n = (struct node *)GC_malloc(sizeof(struct node));
        n->v = i;
        n->next = head;
        head = n;
    }
    return 0;
}
`

func TestHeapdumpEndpoint(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	var req HeapdumpRequest
	req.Name = "dump.c"
	req.Source = heapdumpC
	req.Report = true
	resp, data := postJSON(t, ts.URL+"/v1/heapdump", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, data)
	}
	var out HeapdumpResponse
	unmarshalInto(t, data, &out)
	if out.Snapshot == nil || len(out.Snapshot.Objects) < 8 {
		t.Fatalf("snapshot = %+v, want >= 8 objects", out.Snapshot)
	}
	if out.Snapshot.Trigger != heapdump.TriggerExit {
		t.Errorf("trigger = %q", out.Snapshot.Trigger)
	}
	if out.LiveObjects != len(out.Snapshot.Objects) || out.LiveBytes != out.Snapshot.TotalBytes() {
		t.Errorf("live gauges %d/%d disagree with the snapshot", out.LiveObjects, out.LiveBytes)
	}
	if len(out.Snapshot.Sites) == 0 {
		t.Error("no allocation sites recorded")
	}
	if !strings.Contains(out.Report, "top retainers") || !strings.Contains(out.Report, "main:") {
		t.Errorf("report missing retainers/sites:\n%s", out.Report)
	}
	if out.CacheHit {
		t.Error("first dump reported a cache hit")
	}

	// The second identical request must be served from the artifact cache.
	resp2, data2 := postJSON(t, ts.URL+"/v1/heapdump", req)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp2.StatusCode, data2)
	}
	var out2 HeapdumpResponse
	unmarshalInto(t, data2, &out2)
	if !out2.CacheHit {
		t.Error("identical dump missed the cache")
	}
	if out2.LiveBytes != out.LiveBytes || out2.LiveObjects != out.LiveObjects {
		t.Error("cached dump disagrees with the original")
	}

	// The /metrics heap section must reflect the one capture that ran.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mdata, err := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status = %d", mresp.StatusCode)
	}
	var snap Snapshot
	unmarshalInto(t, mdata, &snap)
	if snap.Heap.Snapshots != 1 {
		t.Errorf("heap.snapshots = %d, want 1 (cache hit must not re-capture)", snap.Heap.Snapshots)
	}
	if snap.Heap.LiveObjects != uint64(out.LiveObjects) || snap.Heap.LiveBytes != out.LiveBytes {
		t.Errorf("heap gauges = %d/%d, want %d/%d",
			snap.Heap.LiveObjects, snap.Heap.LiveBytes, out.LiveObjects, out.LiveBytes)
	}
	if snap.Heap.EpochHighWater == 0 {
		t.Error("heap.epoch_high_water = 0")
	}
	if snap.Heap.DurationMs.Count != 1 {
		t.Errorf("heap duration histogram count = %d, want 1", snap.Heap.DurationMs.Count)
	}
	_ = s
}

func TestHeapdumpEndpointTruncation(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxDumpObjects: 4})
	var req HeapdumpRequest
	req.Source = heapdumpC
	resp, data := postJSON(t, ts.URL+"/v1/heapdump", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, data)
	}
	var out HeapdumpResponse
	unmarshalInto(t, data, &out)
	if !out.Snapshot.Truncated || len(out.Snapshot.Objects) != 4 {
		t.Fatalf("snapshot has %d objects (truncated=%v), want 4 under the server bound",
			len(out.Snapshot.Objects), out.Snapshot.Truncated)
	}
	for _, root := range out.Snapshot.Roots {
		if out.Snapshot.Object(root.Target) == nil {
			t.Error("root targets a truncated object")
		}
	}
}

// TestHeapdumpTruncationLeavesCachedSnapshot: a truncated response is a
// copy; the full snapshot the run cached still serves a later request
// that asks for every object.
func TestHeapdumpTruncationLeavesCachedSnapshot(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var req HeapdumpRequest
	req.Source = heapdumpC
	req.MaxObjects = 4
	var small, full HeapdumpResponse
	resp, data := postJSON(t, ts.URL+"/v1/heapdump", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, data)
	}
	unmarshalInto(t, data, &small)
	req.MaxObjects = 0
	resp, data = postJSON(t, ts.URL+"/v1/heapdump", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, data)
	}
	unmarshalInto(t, data, &full)
	if small.LiveObjects != 4 || !small.Snapshot.Truncated {
		t.Fatalf("bounded dump has %d objects (truncated=%v), want 4", small.LiveObjects, small.Snapshot.Truncated)
	}
	if !full.CacheHit || full.Snapshot.Truncated || full.LiveObjects < 8 {
		t.Fatalf("full dump: %d objects, truncated=%v, cache_hit=%v; want the cached run's whole heap",
			full.LiveObjects, full.Snapshot.Truncated, full.CacheHit)
	}
}

// TestHeapdumpFaultedRunIsNotCached: a run with injected faults is not
// the program's run, so a clean request after it must run again and
// see the clean heap.
func TestHeapdumpFaultedRunIsNotCached(t *testing.T) {
	_, ts := newTestServer(t, Config{AllowFaultHeaders: true})
	var req HeapdumpRequest
	req.Source = heapdumpC
	resp, data := postFaulted(t, ts.URL+"/v1/heapdump", "gc.alloc=error,after=2,msg=injected-oom", "", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("faulted: status = %d: %s", resp.StatusCode, data)
	}
	var faulted HeapdumpResponse
	unmarshalInto(t, data, &faulted)
	if faulted.Snapshot.Trigger != heapdump.TriggerViolation || !strings.Contains(faulted.Snapshot.Reason, "injected-oom") {
		t.Fatalf("faulted dump: trigger %q, reason %q", faulted.Snapshot.Trigger, faulted.Snapshot.Reason)
	}
	resp, data = postJSON(t, ts.URL+"/v1/heapdump", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("clean: status = %d: %s", resp.StatusCode, data)
	}
	var clean HeapdumpResponse
	unmarshalInto(t, data, &clean)
	if clean.CacheHit || clean.Snapshot.Trigger != heapdump.TriggerExit {
		t.Fatalf("clean dump after a faulted one: cache_hit=%v trigger %q, want a fresh run to exit",
			clean.CacheHit, clean.Snapshot.Trigger)
	}
}

func TestHeapdumpEndpointViolation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var req HeapdumpRequest
	req.Source = `
int main() {
    int *p = (int *)GC_malloc(16);
    p[0] = 1;
    GC_free((void *)p);
    return p[0];
}
`
	req.Temporal = true
	resp, data := postJSON(t, ts.URL+"/v1/heapdump", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, data)
	}
	var out HeapdumpResponse
	unmarshalInto(t, data, &out)
	if out.Snapshot.Trigger != heapdump.TriggerViolation {
		t.Errorf("trigger = %q, want violation", out.Snapshot.Trigger)
	}
	if out.Snapshot.Reason == "" {
		t.Error("violation snapshot has no reason")
	}
}

func TestHeapdumpEndpointBadRequest(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var req HeapdumpRequest
	req.Source = "int main( {"
	resp, _ := postJSON(t, ts.URL+"/v1/heapdump", req)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d, want 422 for a parse error", resp.StatusCode)
	}
}
