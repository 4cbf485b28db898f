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

// TestCacheKeysPinned pins the hex digests of the keys a daemon request
// files its artifacts under: the pipeline's final-program (Optimize) stage
// key, which /v1/compile serves, its Annotate stage key, which
// /v1/annotate serves, and the Execute stage's run key, which chains on
// the program key. The bodies have the shape the benchmark's daemon
// workloads send. A changed digest invalidates every entry a disk tier
// holds, so a refactor of how requests are decoded or converted into
// options must leave them unchanged.
func TestCacheKeysPinned(t *testing.T) {
	const (
		programKey  = artifact.Key("b768e1d6e1590f1c69199ac24f32855ddda4f60a7e889e32a780e3b6d7b1a5d8")
		annotateKey = artifact.Key("eb70cfd041d9073271ab937f591db2b37c3b40ef22bdef9ddfe76e2ca78c91f8")
		runKey      = artifact.Key("900e842863afb19ccbf62770f6d5c9819e7202829262e7f3665be8cca81fdf8e")
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
	}{{"final-program stage", programKey}, {"annotate stage", annotateKey}, {"run", runKey}} {
		if _, ok := s.cache.Get(k.key); !ok {
			t.Errorf("no cache entry under the pinned %s key %s", k.what, k.key)
		}
	}
}
