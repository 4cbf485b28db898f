package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"gcsafety/internal/pipeline"
)

const helloC = `
int main() {
    print_str("hello, service\n");
    return 0;
}
`

const loopC = `
int main() {
    int i = 0;
    while (1) { i = i + 1; }
    return i;
}
`

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
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

func getMetrics(t *testing.T, baseURL string) Snapshot {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var s Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		t.Fatal(err)
	}
	return s
}

func unmarshalInto(t *testing.T, data []byte, v any) {
	t.Helper()
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatalf("bad response JSON: %v\n%s", err, data)
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

func TestAnnotateEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, data := postJSON(t, ts.URL+"/v1/annotate", AnnotateRequest{
		Name:   "t.c",
		Source: "char f(char *x) { return x[1]; }",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, data)
	}
	var ar AnnotateResponse
	unmarshalInto(t, data, &ar)
	if ar.Inserted == 0 || !strings.Contains(ar.Output, "KEEP_LIVE") {
		t.Fatalf("annotation did not happen: %+v", ar)
	}
	if ar.CacheHit {
		t.Fatal("first request reported a cache hit")
	}
	resp, data = postJSON(t, ts.URL+"/v1/annotate", AnnotateRequest{
		Name:   "t.c",
		Source: "char f(char *x) { return x[1]; }",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	unmarshalInto(t, data, &ar)
	if !ar.CacheHit {
		t.Fatal("second identical request missed the cache")
	}
}

func TestCheckEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, data := postJSON(t, ts.URL+"/v1/check", CheckRequest{
		Name:   "t.c",
		Source: "char *f(int bits) { return (char *)bits; }",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, data)
	}
	var cr CheckResponse
	unmarshalInto(t, data, &cr)
	if cr.Clean || len(cr.Warnings) == 0 {
		t.Fatalf("int-to-pointer conversion produced no warning: %+v", cr)
	}
	resp, data = postJSON(t, ts.URL+"/v1/check", CheckRequest{
		Name:   "ok.c",
		Source: "int f(int x) { return x + 1; }",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, data)
	}
	unmarshalInto(t, data, &cr)
	if !cr.Clean {
		t.Fatalf("clean source flagged: %+v", cr)
	}
}

// TestCheckWarningsNameTheirOwnFile: annotator warnings carry the file
// name, so two /v1/check requests for one source under different names
// must not share a cached product — each response names its own file.
func TestCheckWarningsNameTheirOwnFile(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	src := "int main() {\n    int x;\n    x = 5;\n    char *p = (char *)x;\n    return 0;\n}\n"
	for _, name := range []string{"first.c", "second.c"} {
		resp, data := postJSON(t, ts.URL+"/v1/check", CheckRequest{Name: name, Source: src})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status = %d: %s", name, resp.StatusCode, data)
		}
		var cr CheckResponse
		unmarshalInto(t, data, &cr)
		if len(cr.Warnings) == 0 {
			t.Fatalf("%s: the cast drew no warning: %+v", name, cr)
		}
		for _, w := range cr.Warnings {
			if !strings.HasPrefix(w, name+":") {
				t.Errorf("%s: warning names another file: %q (cache_hit %v)", name, w, cr.CacheHit)
			}
		}
	}
}

func TestCompileEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, data := postJSON(t, ts.URL+"/v1/compile", CompileRequest{
		Name:      "t.c",
		Source:    helloC,
		Listing:   true,
		BuildSpec: pipeline.BuildSpec{Optimize: true, Annotate: "safe", Post: true},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, data)
	}
	var cr CompileResponse
	unmarshalInto(t, data, &cr)
	if cr.Size == 0 || cr.Listing == "" {
		t.Fatalf("empty compile response: %+v", cr)
	}
}

func TestRunEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, data := postJSON(t, ts.URL+"/v1/run", RunRequest{
		CompileRequest: CompileRequest{Name: "t.c", Source: helloC, BuildSpec: pipeline.BuildSpec{Optimize: true, Annotate: "safe"}},
		RunSpec:        pipeline.RunSpec{Validate: true},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, data)
	}
	var rr RunResponse
	unmarshalInto(t, data, &rr)
	if rr.Output != "hello, service\n" || rr.Fault != "" || rr.Cycles == 0 {
		t.Fatalf("run response: %+v", rr)
	}
}

// TestRunTemporalEndpoint drives the temporal checker over the wire: an
// annotate=temporal build with the epoch checker armed turns a
// use-after-free into a CheckFailed response, not a silent pass.
func TestRunTemporalEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	const uafC = `int main() {
    int *p = (int *)GC_malloc(16);
    p[0] = 7;
    free(p);
    print_int(p[0]);
    return 0;
}
`
	resp, data := postJSON(t, ts.URL+"/v1/run", RunRequest{
		CompileRequest: CompileRequest{Name: "uaf.c", Source: uafC, BuildSpec: pipeline.BuildSpec{Optimize: true, Annotate: "temporal"}},
		RunSpec:        pipeline.RunSpec{Temporal: true},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, data)
	}
	var rr RunResponse
	unmarshalInto(t, data, &rr)
	if !rr.CheckFailed || !strings.Contains(rr.Fault, "temporal") {
		t.Fatalf("temporal run response: %+v", rr)
	}
	// The same program with the checker off must still run to completion
	// (free is a no-op there) — the differential baseline.
	resp, data = postJSON(t, ts.URL+"/v1/run", RunRequest{
		CompileRequest: CompileRequest{Name: "uaf.c", Source: uafC, BuildSpec: pipeline.BuildSpec{Optimize: true, Annotate: "safe"}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, data)
	}
	var base RunResponse
	unmarshalInto(t, data, &base)
	if base.Fault != "" || base.Output != "7" {
		t.Fatalf("baseline run response: %+v", base)
	}
}

// TestRunConcurrentEndpoint runs a two-thread program on the deterministic
// concurrent-mutator simulation and checks the thread bound.
func TestRunConcurrentEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	const mtC = `int thread1() { return 0; }
int main() {
    join_threads();
    print_str("joined");
    return 0;
}
`
	resp, data := postJSON(t, ts.URL+"/v1/run", RunRequest{
		CompileRequest: CompileRequest{Name: "mt.c", Source: mtC, BuildSpec: pipeline.BuildSpec{Optimize: true, Annotate: "safe"}},
		RunSpec:        pipeline.RunSpec{Threads: 2, SchedSeed: 7},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, data)
	}
	var rr RunResponse
	unmarshalInto(t, data, &rr)
	if rr.Fault != "" || rr.Output != "joined" {
		t.Fatalf("concurrent run response: %+v", rr)
	}
	// An out-of-range thread count is rejected before the build: the
	// request (a cell not compiled yet) must not cost a compile.
	before := getMetrics(t, ts.URL).Compiles
	resp, data = postJSON(t, ts.URL+"/v1/run", RunRequest{
		CompileRequest: CompileRequest{Name: "mt.c", Source: mtC, BuildSpec: pipeline.BuildSpec{Optimize: true}},
		RunSpec:        pipeline.RunSpec{Threads: 1000},
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("threads=1000: status = %d, want 400: %s", resp.StatusCode, data)
	}
	if after := getMetrics(t, ts.URL).Compiles; after != before {
		t.Fatalf("threads=1000: compiles went from %d to %d, want no compile", before, after)
	}
}

// TestEngineField pins the wire contract of the retired "engine" field:
// /v1/run, /v1/heapdump and /v1/matrix reject it as an unknown field,
// whatever its value, and answer the same body without it.
func TestEngineField(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, c := range []struct {
		path string
		body map[string]any
	}{
		{"/v1/run", map[string]any{"name": "t.c", "source": helloC, "optimize": true}},
		{"/v1/heapdump", map[string]any{"name": "t.c", "source": helloC, "optimize": true}},
		{"/v1/matrix", map[string]any{"seed": 1, "steps": 2, "machines": []string{"ss10"}, "skip_adversarial": true}},
	} {
		if resp, data := postJSON(t, ts.URL+c.path, c.body); resp.StatusCode != http.StatusOK {
			t.Errorf("%s without engine: status = %d, want 200: %s", c.path, resp.StatusCode, data)
		}
		for _, engine := range []string{"", "interp", "threaded"} {
			c.body["engine"] = engine
			resp, data := postJSON(t, ts.URL+c.path, c.body)
			if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(data), `unknown field \"engine\"`) {
				t.Errorf("%s engine %q: status = %d, want 400 naming the field: %s", c.path, engine, resp.StatusCode, data)
			}
		}
	}
}

func TestRunStepLimit(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, data := postJSON(t, ts.URL+"/v1/run", RunRequest{
		CompileRequest: CompileRequest{Name: "loop.c", Source: loopC, BuildSpec: pipeline.BuildSpec{Optimize: true}},
		MaxSteps:       5000,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, data)
	}
	var rr RunResponse
	unmarshalInto(t, data, &rr)
	if !rr.StepLimit || rr.Fault == "" {
		t.Fatalf("runaway program not stopped by step limit: %+v", rr)
	}
	if rr.Instrs != 5000 {
		t.Fatalf("instrs = %d, want 5000", rr.Instrs)
	}
}

func TestRunTimeout(t *testing.T) {
	_, ts := newTestServer(t, Config{RunTimeout: 50 * time.Millisecond})
	resp, data := postJSON(t, ts.URL+"/v1/run", RunRequest{
		CompileRequest: CompileRequest{Name: "loop.c", Source: loopC, BuildSpec: pipeline.BuildSpec{Optimize: true}},
	})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504: %s", resp.StatusCode, data)
	}
}

func TestMatrixEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, data := postJSON(t, ts.URL+"/v1/matrix", MatrixRequest{
		Seed: 1, Steps: 4, Machines: []string{"ss10"},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, data)
	}
	var mr MatrixResponse
	unmarshalInto(t, data, &mr)
	if mr.Treatments == 0 || mr.Source == "" {
		t.Fatalf("matrix response: %+v", mr)
	}
	if len(mr.Violations) != 0 {
		t.Fatalf("unexpected violations: %v", mr.Violations)
	}
}

func TestMalformedC(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, url := range []string{"/v1/annotate", "/v1/compile", "/v1/run"} {
		resp, data := postJSON(t, ts.URL+url, map[string]string{
			"name": "bad.c", "source": "int main( { return }",
		})
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Errorf("%s: status = %d, want 422: %s", url, resp.StatusCode, data)
		}
	}
}

func TestMalformedJSON(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Post(ts.URL+"/v1/compile", "application/json",
		strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
}

func TestOversizedBody(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 1024})
	resp, data := postJSON(t, ts.URL+"/v1/compile", CompileRequest{
		Name: "big.c", Source: strings.Repeat("/* pad */ ", 1024),
	})
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413: %s", resp.StatusCode, data)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/compile")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("status = %d, want 405", resp.StatusCode)
	}
}

// TestCanceledContext drives a handler directly with a dead context: the
// request must be rejected, not executed.
func TestCanceledContext(t *testing.T) {
	s := New(Config{})
	body, _ := json.Marshal(CompileRequest{Name: "t.c", Source: helloC, BuildSpec: pipeline.BuildSpec{Optimize: true}})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(body)).WithContext(ctx)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != httpStatusClientClosedRequest && rec.Code != http.StatusOK {
		t.Logf("status = %d", rec.Code)
	}
	if rec.Code == http.StatusOK {
		t.Fatalf("dead-context request executed: %s", rec.Body)
	}
}

// TestCompileStampede is the acceptance criterion: under 100 concurrent
// identical /v1/compile requests the compiler runs exactly once; cache
// hits serve the rest.
func TestCompileStampede(t *testing.T) {
	s, ts := newTestServer(t, Config{QueueDepth: 256})
	const n = 100
	body, _ := json.Marshal(CompileRequest{
		Name:      "stampede.c",
		Source:    helloC,
		BuildSpec: pipeline.BuildSpec{Optimize: true, Annotate: "safe", Post: true},
	})
	var wg sync.WaitGroup
	errs := make(chan error, n)
	gate := make(chan struct{})
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-gate
			resp, err := http.Post(ts.URL+"/v1/compile", "application/json", bytes.NewReader(body))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b, _ := io.ReadAll(resp.Body)
				errs <- fmt.Errorf("status %d: %s", resp.StatusCode, b)
			}
		}()
	}
	close(gate)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := s.Compiles(); got != 1 {
		t.Fatalf("compile counter = %d, want exactly 1", got)
	}
	// The one compile that ran missed the Peephole key its ladder files
	// and the six stages it walked to compute it; the other 99 requests
	// coalesced on the Peephole key.
	st := s.CacheStats()
	if st.Hits != n-1 || st.Misses != 7 {
		t.Fatalf("cache stats: %+v, want %d hits / 7 misses", st, n-1)
	}
	for _, ps := range s.PipelineStats() {
		if ps.Misses > 1 {
			t.Fatalf("stage %s executed %d times under the stampede, want at most 1", ps.Stage, ps.Misses)
		}
	}
}

// TestRunSharesCompiledArtifact pins that /v1/run reuses /v1/compile's
// artifact (and vice versa): same key space, no recompilation.
func TestRunSharesCompiledArtifact(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	req := CompileRequest{Name: "t.c", Source: helloC, BuildSpec: pipeline.BuildSpec{Optimize: true, Annotate: "safe"}}
	if resp, data := postJSON(t, ts.URL+"/v1/compile", req); resp.StatusCode != http.StatusOK {
		t.Fatalf("compile: %s", data)
	}
	resp, data := postJSON(t, ts.URL+"/v1/run", RunRequest{CompileRequest: req})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run: %s", data)
	}
	var rr RunResponse
	unmarshalInto(t, data, &rr)
	if !rr.CacheHit {
		t.Fatal("run recompiled instead of using the cached artifact")
	}
	if got := s.Compiles(); got != 1 {
		t.Fatalf("compile counter = %d, want 1", got)
	}
}

// TestConcurrentRunsOnSharedProgram hammers one cached program with
// concurrent executions; under -race this pins that runs never mutate the
// shared artifact.
func TestConcurrentRunsOnSharedProgram(t *testing.T) {
	_, ts := newTestServer(t, Config{QueueDepth: 128})
	body, _ := json.Marshal(RunRequest{
		CompileRequest: CompileRequest{Name: "t.c", Source: helloC, BuildSpec: pipeline.BuildSpec{Optimize: true, Annotate: "safe"}},
		RunSpec:        pipeline.RunSpec{Validate: true, GCEvery: 97},
	})
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/run", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			data, _ := io.ReadAll(resp.Body)
			var rr RunResponse
			if err := json.Unmarshal(data, &rr); err != nil || rr.Output != "hello, service\n" {
				t.Errorf("run diverged: %s", data)
			}
		}()
	}
	wg.Wait()
}

func TestMetricsAdvance(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	before := getMetrics(t, ts.URL)
	postJSON(t, ts.URL+"/v1/run", RunRequest{
		CompileRequest: CompileRequest{Name: "t.c", Source: helloC, BuildSpec: pipeline.BuildSpec{Optimize: true}},
	})
	postJSON(t, ts.URL+"/v1/run", RunRequest{
		CompileRequest: CompileRequest{Name: "t.c", Source: helloC, BuildSpec: pipeline.BuildSpec{Optimize: true}},
	})
	after := getMetrics(t, ts.URL)
	run := after.Endpoints["/v1/run"]
	if run.Requests != before.Endpoints["/v1/run"].Requests+2 {
		t.Fatalf("request counter did not advance: %+v", run)
	}
	if run.LatencyMs.Count != 2 {
		t.Fatalf("latency histogram count = %d, want 2", run.LatencyMs.Count)
	}
	var bucketSum uint64
	for _, c := range run.LatencyMs.Buckets {
		bucketSum += c
	}
	if bucketSum != run.LatencyMs.Count {
		t.Fatalf("histogram buckets sum to %d, want %d", bucketSum, run.LatencyMs.Count)
	}
	// The second identical run shares the first one's execution, and run
	// metrics count computed runs only.
	if after.Runs.Programs != before.Runs.Programs+1 || after.Runs.Cycles == 0 {
		t.Fatalf("run metrics did not advance: %+v", after.Runs)
	}
	// One cold build = the Optimize key its ladder files + 4 stage misses
	// (lex, parse, typecheck, codegen — no annotation, no peephole), and
	// one execution, whose walk finds the program built; the second
	// identical run hits the program and the execution.
	if after.Cache.Hits != 3 || after.Cache.Misses != 6 || after.Compiles != 1 {
		t.Fatalf("cache counters: %+v compiles=%d", after.Cache, after.Compiles)
	}
	if len(after.Pipeline) == 0 {
		t.Fatal("/metrics snapshot carries no pipeline stage counters")
	}
	var executed uint64
	for _, ps := range after.Pipeline {
		executed += ps.Misses
	}
	if executed != 6 {
		t.Fatalf("pipeline stages executed %d times, want 6: %+v", executed, after.Pipeline)
	}
}

// Pool unit tests: deterministic load-shedding behavior.

func TestPoolShedsWhenQueueFull(t *testing.T) {
	p := newPool(1, 1)
	if err := p.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	queued := make(chan error, 1)
	go func() { queued <- p.acquire(context.Background()) }()
	for p.queued.Load() != 1 {
		time.Sleep(time.Millisecond)
	}
	if err := p.acquire(context.Background()); err != errBusy {
		t.Fatalf("third acquire: err = %v, want errBusy", err)
	}
	p.release()
	if err := <-queued; err != nil {
		t.Fatalf("queued acquire: %v", err)
	}
	p.release()
}

func TestPoolRespectsContext(t *testing.T) {
	p := newPool(1, 4)
	if err := p.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer p.release()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := p.acquire(ctx); err != context.DeadlineExceeded {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
}

// TestDeeplyNestedSourceIs422: a source that nests 500,000 parentheses
// (about 1 MB, within the body limit) is a parse error, not a stack
// overflow that kills the daemon.
func TestDeeplyNestedSourceIs422(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	src := "int main(void) { return " + strings.Repeat("(", 500_000) + "1" + strings.Repeat(")", 500_000) + "; }"
	resp, data := postJSON(t, ts.URL+"/v1/compile", CompileRequest{Name: "deep.c", Source: src})
	if resp.StatusCode != http.StatusUnprocessableEntity || !strings.Contains(string(data), "nesting exceeds") {
		t.Fatalf("status = %d, want 422 naming the nesting bound: %.200s", resp.StatusCode, data)
	}
}

// hostileForms are the nested sources of the pipeline's
// TestHostileNestingFailsAtParse, each about 1 MB divided by div, and a
// valid main followed by 1,048,000/div bad characters; each fails the
// build at the parse stage.
func hostileForms(div int) []struct{ name, src string } {
	nested := func(open, core, close string, n int) string {
		return "int main(void) { int x = 1; return " + strings.Repeat(open, n/div) + core + strings.Repeat(close, n/div) + "; }"
	}
	return []struct{ name, src string }{
		{"parens", nested("(", "1", ")", 500_000)},
		{"prefix", nested("! ", "x", "", 500_000)},
		{"casts", nested("(int)", "x", "", 200_000)},
		{"assignments", nested("x=", "1", "", 500_000)},
		{"conditionals", nested("x?x:", "x", "", 250_000)},
		{"blocks", "int main(void) { " + strings.Repeat("{", 500_000/div) + strings.Repeat("}", 500_000/div) + " }"},
		{"array declarator", "int x" + strings.Repeat("[1]", 333_000/div) + ";"},
		{"function declarator", "int f" + strings.Repeat("(int (*)", 110_000/div) + "(void)" + strings.Repeat(")", 110_000/div) + ";"},
		{"bad characters", "int main(void) { return 0; }" + strings.Repeat("@", 1_048_000/div)},
	}
}

// flatChain is main returning x+x+… with the given number of terms: valid
// C whose AST nests once per term and whose code is one basic block.
func flatChain(terms int) string {
	return "int main(void) { int x = 1; return x" + strings.Repeat("+x", terms) + "; }"
}

// TestHostileSourcesAre422: every source endpoint answers each hostile
// form with 422 within 2 s, and no handler panics. The flat x+x+… chain
// is valid C: at 1 MB it goes to the annotator's endpoints only, which
// must answer it within the same bound, and at 16,000 terms an optimized
// compile and run of it must too, since the optimizer's local passes are
// linear in block length. Codegen itself still takes over a second on the
// 1 MB chain.
func TestHostileSourcesAre422(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	post := func(path string, body any, want int, form string) {
		t.Helper()
		start := time.Now()
		resp, data := postJSON(t, ts.URL+path, body)
		if resp.StatusCode != want {
			t.Errorf("%s %s: status %d, want %d: %.200s", path, form, resp.StatusCode, want, data)
		}
		if d := time.Since(start); !testing.Short() && d > 2*time.Second {
			t.Errorf("%s %s: answering took %v", path, form, d)
		}
	}
	div := 1
	if testing.Short() {
		div = 20
	}
	for _, f := range hostileForms(div) {
		for _, path := range []string{"/v1/annotate", "/v1/check", "/v1/compile", "/v1/run", "/v1/heapdump"} {
			post(path, map[string]any{"name": "hostile.c", "source": f.src}, http.StatusUnprocessableEntity, f.name)
		}
	}
	for _, path := range []string{"/v1/annotate", "/v1/check"} {
		post(path, map[string]any{"name": "flat.c", "source": flatChain(500_000 / div)}, http.StatusOK, "flat chain")
	}
	for _, path := range []string{"/v1/compile", "/v1/run"} {
		post(path, map[string]any{"name": "chain.c", "source": flatChain(16_000), "optimize": true}, http.StatusOK, "16,000-term chain")
	}
	if snap := getMetrics(t, ts.URL); snap.Panics != 0 {
		t.Fatalf("%d handler panics", snap.Panics)
	}
}

// TestBadCharactersLeaveLittleHeap: three 1 MiB bodies of bad characters
// behind distinct mains leave their scans in the cache, and the scans
// keep a few errors each, not one per character.
func TestBadCharactersLeaveLittleHeap(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for i := 0; i < 3; i++ {
		src := fmt.Sprintf("int main(void) { return %d; }", i) + strings.Repeat("@", 1_048_000)
		if resp, data := postJSON(t, ts.URL+"/v1/compile", map[string]any{"source": src}); resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("status %d: %.200s", resp.StatusCode, data)
		}
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapInuse > 64<<20 {
		t.Fatalf("heap in use %d MB after three bad-character bodies", ms.HeapInuse>>20)
	}
}
