package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"

	"gcsafety/internal/fuzz"
	"gcsafety/internal/interp"
	"gcsafety/internal/machine"
	"gcsafety/internal/par"
	"gcsafety/internal/server"
)

const (
	// Each pooled program has programSteps generated operations.
	// daemon-cold draws from coldPrograms of them, daemon-warm from
	// warmPrograms: with four treatments each, warm's working set must fit
	// the cache budget.
	coldPrograms = 256
	warmPrograms = 64
	programSteps = 32
	// cacheBytes is the daemon's artifact-cache budget. The default 256 MiB
	// of accounted sizes holds about 1.5 GB of real heap under daemon-cold's
	// traffic; a quarter of it keeps a run within a shared host's memory
	// and still fills within the first second.
	cacheBytes = 64 << 20
	// sampleOps is how many of each client's first operations the layer
	// probes replay.
	sampleOps = 32
)

// treatment is one compile configuration of the daemon workloads.
type treatment struct {
	name     string
	annotate string // gcsafed's annotate field
	optimize bool
	elide    bool
}

var daemonTreatments = []treatment{
	{"-O", "", true, false},
	{"-O, safe", "safe", true, false},
	{"-O, safe+elide", "safe", true, true},
	{"-g, checked", "checked", false, false},
}

// buildRequest is the body of /v1/compile and /v1/run. Zero fields are
// omitted, so a request carries only fields its endpoint declares: the
// daemon answers an unknown field with 400.
type buildRequest struct {
	Name                string `json:"name"`
	Source              string `json:"source"`
	Machine             string `json:"machine,omitempty"`
	Annotate            string `json:"annotate,omitempty"`
	Optimize            bool   `json:"optimize,omitempty"`
	Post                bool   `json:"post,omitempty"`
	Elide               bool   `json:"elide,omitempty"`
	Input               string `json:"input,omitempty"`
	GCEvery             uint64 `json:"gc_every,omitempty"`
	CollectAtEveryAlloc bool   `json:"collect_at_every_alloc,omitempty"`
	Validate            bool   `json:"validate,omitempty"`
	Temporal            bool   `json:"temporal,omitempty"`
	Threads             int    `json:"threads,omitempty"`
	SchedSeed           uint64 `json:"sched_seed,omitempty"`
}

func compileRequest(c *buildCase) buildRequest {
	return buildRequest{
		Name:     c.file,
		Source:   c.src,
		Annotate: c.annotate,
		Optimize: c.optimize,
		Post:     c.post,
		Elide:    c.elide,
	}
}

func runRequest(c *buildCase) buildRequest {
	r := compileRequest(c)
	if m := wireMachine(c.exec.Config); m != "ss10" {
		r.Machine = m
	}
	r.Input = c.exec.Input
	r.GCEvery = c.exec.GCEveryInstrs
	r.CollectAtEveryAlloc = c.exec.CollectAtEveryAlloc
	r.Validate = c.exec.Validate
	r.Temporal = c.exec.Temporal
	r.Threads = c.exec.Threads
	r.SchedSeed = c.exec.SchedSeed
	return r
}

type annotateRequest struct {
	Name   string `json:"name"`
	Source string `json:"source"`
	Mode   string `json:"mode,omitempty"`
	Elide  bool   `json:"elide,omitempty"`
}

type runResponse struct {
	Output      string `json:"output"`
	Fault       string `json:"fault"`
	CheckFailed bool   `json:"check_failed"`
	Cycles      uint64 `json:"cycles"`
	Size        int    `json:"size"`
}

type compileResponse struct {
	Size int `json:"size"`
}

type annotateResponse struct {
	Output   string `json:"output"`
	Inserted int    `json:"inserted"`
	Elided   int    `json:"elided"`
}

// verifyResponse checks a /v1/run answer against the case.
func (c *buildCase) verifyResponse(r *runResponse) error {
	var err error
	if r.Fault != "" {
		err = errors.New(r.Fault)
	}
	return c.verify(r.Output, err, r.CheckFailed)
}

// daemon is an in-process gcsafed behind a loopback listener, with the
// workloads' two keep-alive connections.
type daemon struct {
	ts     *httptest.Server
	client *http.Client
}

// startDaemon starts gcsafed sized for a two-processor host: two workers,
// no matrix fan-out, and a memory-only artifact cache.
func startDaemon() *daemon {
	srv := server.New(server.Config{Workers: 2, Parallel: 1, CacheBytes: cacheBytes})
	return &daemon{
		ts: httptest.NewServer(srv.Handler()),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     2,
			MaxIdleConnsPerHost: 2,
		}},
	}
}

func (d *daemon) close() {
	d.client.CloseIdleConnections()
	d.ts.Close()
}

// post sends one JSON request and decodes the 200 answer into resp.
func (d *daemon) post(path string, req, resp any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	r, err := d.client.Post(d.ts.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer r.Body.Close()
	data, err := io.ReadAll(r.Body)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if r.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: HTTP %d: %s", path, r.StatusCode, clip(strings.TrimSpace(string(data))))
	}
	return json.Unmarshal(data, resp)
}

// metricsDoc is the part of gcsafed's /metrics document the benchmark reads.
type metricsDoc struct {
	Endpoints map[string]struct {
		LatencyMs struct {
			Count uint64  `json:"count"`
			SumMs float64 `json:"sum_ms"`
		} `json:"latency_ms"`
	} `json:"endpoints"`
	Cache struct {
		Hits      uint64 `json:"hits"`
		Misses    uint64 `json:"misses"`
		Evictions uint64 `json:"evictions"`
		Bytes     int64  `json:"bytes"`
	} `json:"cache"`
	Compiles uint64 `json:"compiles"`
	Pipeline []struct {
		Calls  uint64 `json:"calls"`
		Hits   uint64 `json:"hits"`
		Misses uint64 `json:"misses"`
	} `json:"pipeline"`
}

// counters reads the daemon's /metrics: its pipeline, artifact cache and
// /v1 endpoint counters.
func (d *daemon) counters() (counters, error) {
	r, err := d.client.Get(d.ts.URL + "/metrics")
	if err != nil {
		return counters{}, err
	}
	defer r.Body.Close()
	var m metricsDoc
	if err := json.NewDecoder(r.Body).Decode(&m); err != nil {
		return counters{}, fmt.Errorf("/metrics: %w", err)
	}
	n := counters{server: true, compiles: m.Compiles}
	for path, e := range m.Endpoints {
		if strings.HasPrefix(path, "/v1/") {
			n.requests += e.LatencyMs.Count
			n.serverMs += e.LatencyMs.SumMs
		}
	}
	for _, s := range m.Pipeline {
		n.stageCalls += s.Calls
		n.stageHits += s.Hits
		n.stageComputes += s.Misses
	}
	n.cacheHits, n.cacheMisses, n.evictions, n.cacheBytes = m.Cache.Hits, m.Cache.Misses, m.Cache.Evictions, m.Cache.Bytes
	return n, nil
}

// warmItem is one (program, treatment) of daemon-warm with the answers
// its set-up requests got; every later answer must match them exactly.
type warmItem struct {
	prog, tr int
	run      runResponse
	annotate annotateResponse
}

// daemonInst is daemon-cold or daemon-warm: two closed-loop clients on an
// in-process gcsafed.
type daemonInst struct {
	*daemon
	seed int64
	warm bool
	pool []*fuzz.Program
	// rotation is the seed's order of the four treatments (daemon-cold).
	rotation []int
	// items, zipf and rank belong to daemon-warm: zipf is the cumulative
	// Zipf(s=1.1) distribution over popularity ranks, and rank maps a
	// rank onto an item.
	items []warmItem
	zipf  []float64
	rank  []int
}

func setupDaemon(seed int64, warm bool) (instance, error) {
	n := coldPrograms
	if warm {
		n = warmPrograms
	}
	d := &daemonInst{seed: seed, warm: warm, pool: make([]*fuzz.Program, n)}
	for j := range d.pool {
		d.pool[j] = fuzz.Generate(int64(mix(seed, 2, uint64(j))>>1), programSteps)
	}
	d.rotation = shuffle(seed, 3, len(daemonTreatments))
	d.daemon = startDaemon()
	if !warm {
		return d, nil
	}

	d.items = make([]warmItem, len(d.pool)*len(daemonTreatments))
	for k := range d.items {
		d.items[k].prog, d.items[k].tr = k/len(daemonTreatments), k%len(daemonTreatments)
	}
	d.rank = shuffle(seed, 4, len(d.items))
	d.zipf = make([]float64, len(d.items))
	var sum float64
	for r := range d.zipf {
		sum += math.Pow(float64(r+1), -1.1)
		d.zipf[r] = sum
	}
	for r := range d.zipf {
		d.zipf[r] /= sum
	}
	errs := make([]error, len(d.items))
	par.ForEach(2, len(d.items), func(k int) {
		it := &d.items[k]
		c := d.warmCase(k)
		if errs[k] = d.post("/v1/run", runRequest(&c), &it.run); errs[k] == nil {
			errs[k] = c.verifyResponse(&it.run)
		}
		if errs[k] == nil {
			errs[k] = d.post("/v1/annotate", annotateRequestFor(&c), &it.annotate)
		}
	})
	if err := errors.Join(errs...); err != nil {
		d.close()
		return nil, fmt.Errorf("warming the daemon: %w", err)
	}
	return d, nil
}

// shuffle returns a seeded permutation of [0, n).
func shuffle(seed int64, salt uint64, n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := int(mix(seed, salt, uint64(i)) % uint64(i+1))
		p[i], p[j] = p[j], p[i]
	}
	return p
}

func fuzzCase(label, src string, p *fuzz.Program, t treatment) buildCase {
	return buildCase{
		label:    label,
		file:     "fuzz.c",
		src:      src,
		annotate: t.annotate,
		optimize: t.optimize,
		elide:    t.elide,
		exec:     interp.Options{Config: machine.SPARCstation10()},
		want:     p.Want,
	}
}

// coldCase is client c's i-th daemon-cold request: a pooled program with
// a trailing comment no other request carries, so every stage key misses.
func (d *daemonInst) coldCase(c, i int) buildCase {
	p := d.pool[mix(d.seed, 5, uint64(c), uint64(i))%uint64(len(d.pool))]
	t := daemonTreatments[d.rotation[(c+i)%len(daemonTreatments)]]
	src := fmt.Sprintf("%s/* client %d request %d */\n", p.Source, c, i)
	return fuzzCase(fmt.Sprintf("%s [%s] client %d request %d", p.Label, t.name, c, i), src, p, t)
}

func (d *daemonInst) warmCase(k int) buildCase {
	it := &d.items[k]
	p, t := d.pool[it.prog], daemonTreatments[it.tr]
	return fuzzCase(fmt.Sprintf("%s [%s]", p.Label, t.name), p.Source, p, t)
}

// warmDraw is the item client c's i-th daemon-warm request asks for.
func (d *daemonInst) warmDraw(c, i int) int {
	u := unit(mix(d.seed, 6, uint64(c), uint64(i)))
	r := sort.SearchFloat64s(d.zipf, u)
	if r == len(d.zipf) {
		r--
	}
	return d.rank[r]
}

func annotateRequestFor(c *buildCase) annotateRequest {
	mode := c.annotate
	if mode == "" {
		mode = "safe"
	}
	return annotateRequest{Name: c.file, Source: c.src, Mode: mode, Elide: c.elide}
}

func (d *daemonInst) clients() int { return 2 }

func (d *daemonInst) op(c, i int, _ *tracer, _ int) error {
	if !d.warm {
		bc := d.coldCase(c, i)
		var r runResponse
		if err := d.post("/v1/run", runRequest(&bc), &r); err != nil {
			return err
		}
		return bc.verifyResponse(&r)
	}

	k := d.warmDraw(c, i)
	it := &d.items[k]
	bc := d.warmCase(k)
	// The endpoint mix: six tenths compiles, three tenths runs, a tenth
	// annotations. Compiles, the fastest answers, must be more than half:
	// with exactly half, the median sits on the edge of their cluster and
	// jumps between it and the slower answers from run to run.
	switch e := mix(d.seed, 7, uint64(c), uint64(i)) % 10; {
	case e < 6:
		var r compileResponse
		if err := d.post("/v1/compile", compileRequest(&bc), &r); err != nil {
			return err
		}
		if r.Size != it.run.Size {
			return fmt.Errorf("%s: compiled size %d, set-up got %d", bc.label, r.Size, it.run.Size)
		}
		return nil
	case e < 9:
		var r runResponse
		if err := d.post("/v1/run", runRequest(&bc), &r); err != nil {
			return err
		}
		if err := bc.verifyResponse(&r); err != nil {
			return err
		}
		if r.Cycles != it.run.Cycles {
			return fmt.Errorf("%s: %d simulated cycles, set-up got %d", bc.label, r.Cycles, it.run.Cycles)
		}
		return nil
	default:
		var r annotateResponse
		if err := d.post("/v1/annotate", annotateRequestFor(&bc), &r); err != nil {
			return err
		}
		if r != it.annotate {
			return fmt.Errorf("%s: annotation differs from the set-up's", bc.label)
		}
		return nil
	}
}

// cases are the builds of each client's first sampleOps requests.
func (d *daemonInst) cases() ([]buildCase, error) {
	var cs []buildCase
	for i := 0; i < sampleOps; i++ {
		for c := 0; c < d.clients(); c++ {
			if d.warm {
				cs = append(cs, d.warmCase(d.warmDraw(c, i)))
			} else {
				cs = append(cs, d.coldCase(c, i))
			}
		}
	}
	return cs, nil
}
