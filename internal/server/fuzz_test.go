package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// FuzzRequestBody posts arbitrary bytes as the body of every /v1
// endpoint of an in-process daemon (no listener) and requires that none
// answers 500 and no handler panics. A small step budget, deadline and
// cache keep fuzzer-grown programs from stalling the target or growing
// its heap.
// The seeds are the hostile sources of TestHostileSourcesAre422 at their
// -short size, the flat chain, and one valid request per endpoint.
//
// Run with:
//
//	go test -run '^$' -fuzz=FuzzRequestBody -fuzztime=30s ./internal/server
func FuzzRequestBody(f *testing.F) {
	add := func(v any) {
		b, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	for _, h := range hostileForms(20) {
		add(map[string]any{"name": "hostile.c", "source": h.src})
	}
	add(map[string]any{"name": "flat.c", "source": flatChain(25_000)})
	const prog = `int main(void) { int *p = GC_malloc(8); p[1] = 3; print_int(p[1]); return 0; }`
	add(map[string]any{"name": "t.c", "source": prog})                                                    // annotate, check
	add(map[string]any{"name": "t.c", "source": prog, "optimize": true, "annotate": "safe"})              // compile
	add(map[string]any{"name": "t.c", "source": prog, "optimize": true, "gc_every": 1, "validate": true}) // run
	add(map[string]any{"seed": 5, "steps": 6, "machines": []string{"ss10"}})                              // matrix
	add(map[string]any{"name": "t.c", "source": prog, "max_objects": 4})                                  // heapdump
	// A unit without main never starts its run: /v1/heapdump answered it
	// 500 until it became a 422.
	f.Add([]byte("{}"))

	s := New(Config{MaxSteps: 200_000, RunTimeout: 2 * time.Second, CacheBytes: 16 << 20})
	h := s.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		// The peer endpoints answer 404 on a daemon that is not clustered.
		for _, path := range []string{
			"/v1/annotate", "/v1/check", "/v1/compile", "/v1/run", "/v1/matrix", "/v1/heapdump",
			"/v1/peer/get", "/v1/peer/put", "/v1/peer/update",
		} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
			if rec.Code == http.StatusInternalServerError {
				t.Fatalf("%s answered 500 to %q: %.300s", path, body, rec.Body.Bytes())
			}
		}
		if n := s.metrics.panics.Load(); n != 0 {
			t.Fatalf("%d handler panics", n)
		}
	})
}
