package server

import (
	"net/http"
	"testing"

	"gcsafety/internal/artifact"
)

// keyPinC is the fixed source the pinned keys are derived from.
const keyPinC = `
int *cell(int *p, int i) { return p + i; }
int main() {
    int *p = GC_malloc(8 * sizeof(int));
    *cell(p, 3) = 42;
    print_int(*cell(p, 3));
    return 0;
}
`

// TestCacheKeysPinned pins the hex digests of the three keys a daemon
// request files its products under: the /v1/compile product key, the
// /v1/annotate product key, and the Execute stage's run key, which chains
// on the compile product key. The bodies have the shape the benchmark's
// daemon workloads send. A changed digest invalidates every entry a disk
// tier holds, so a refactor of how requests are decoded or converted into
// options must leave all three unchanged.
func TestCacheKeysPinned(t *testing.T) {
	const (
		compileKey  = artifact.Key("e8b76fb8031af32c78fa9d66bb92b70cd027d1213f03bc680a022b798413cbc9")
		annotateKey = artifact.Key("2bd6b12e43e328a749dc49c4f3612cf6ee3e3fd6a92d1c39b34fbe4edb3fe2e5")
		runKey      = artifact.Key("2eb4c9b775d68a6b68df4c7f67f71d65fde6f1e22419d8df9a901d27ba1cfe4c")
	)
	s, ts := newTestServer(t, Config{})
	run := map[string]any{
		"name": "fuzz.c", "source": keyPinC, "annotate": "safe", "optimize": true,
		"elide": true, "threads": 4, "sched_seed": 7,
	}
	if resp, data := postJSON(t, ts.URL+"/v1/run", run); resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/run: status %d: %s", resp.StatusCode, data)
	}
	ann := map[string]any{"name": "fuzz.c", "source": keyPinC, "mode": "safe", "elide": true}
	if resp, data := postJSON(t, ts.URL+"/v1/annotate", ann); resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/annotate: status %d: %s", resp.StatusCode, data)
	}
	for _, k := range []struct {
		what string
		key  artifact.Key
	}{{"compile product", compileKey}, {"annotate product", annotateKey}, {"run", runKey}} {
		if _, ok := s.cache.Get(k.key); !ok {
			t.Errorf("no cache entry under the pinned %s key %s", k.what, k.key)
		}
	}
}
