// Package server implements gcsafed: a long-running HTTP/JSON daemon that
// exposes the whole reproduction pipeline — annotate, check, compile,
// peephole, run, and the differential treatment matrix — as a service.
//
// Three mechanisms make it safe to point heavy or adversarial traffic at:
//
//   - every request runs under a context deadline and an interpreter
//     instruction budget, threaded through the public pipeline down into
//     internal/interp, so no input can hang a worker;
//   - requests flow through a bounded worker pool (sized to GOMAXPROCS)
//     with a queue-depth limit that sheds excess load with 429s instead of
//     letting latency collapse;
//   - annotation and compilation results land in a content-addressed
//     artifact cache (internal/artifact) keyed by SHA-256 of (source,
//     annotation options, machine, opt level, peephole flag), so identical
//     sources are annotated/compiled exactly once under arbitrary
//     concurrency and repeated safe-mode builds are near-free.
//
// Observability is JSON counters at /metrics: per-endpoint request counts
// and latency histograms, cache hits/misses/evictions, shed requests, and
// accumulated GC statistics from every program the service ran.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime/debug"
	"strconv"
	"sync/atomic"
	"time"

	"gcsafety/internal/artifact"
	"gcsafety/internal/cluster"
	"gcsafety/internal/faultinject"
	"gcsafety/internal/machine"
	"gcsafety/internal/par"
	"gcsafety/internal/pipeline"
)

// Config sizes the daemon. The zero value of any field selects the
// documented default.
type Config struct {
	// Workers bounds concurrently executing pipeline requests (default:
	// the shared parallelism degree — GCSAFETY_PARALLEL, else GOMAXPROCS).
	Workers int
	// Parallel is how many treatments a single /v1/matrix request runs
	// concurrently (default: the shared parallelism degree). The matrix
	// fan-out happens inside one worker slot, so total interpreter
	// concurrency is bounded by Workers x Parallel; operators pinning the
	// daemon down tune both with one knob (gcsafed -parallel, or
	// GCSAFETY_PARALLEL).
	Parallel int
	// QueueDepth bounds requests waiting for a worker; beyond it the
	// server sheds load with 429 (default 64).
	QueueDepth int
	// CacheBytes is the artifact cache's LRU byte budget (default 256 MiB).
	CacheBytes int64
	// MaxBodyBytes bounds request bodies (default 1 MiB).
	MaxBodyBytes int64
	// RunTimeout is the per-request processing ceiling; requests may ask
	// for less, never more (default 30s).
	RunTimeout time.Duration
	// MaxSteps is the per-run interpreter instruction ceiling; requests
	// may ask for less, never more (default 200M).
	MaxSteps uint64
	// CacheDir, when non-empty, attaches a crash-safe disk tier to the
	// artifact cache: artifacts survive restarts (even kill -9), entries
	// are SHA-256-verified on read, and corrupt entries are quarantined
	// at startup. Empty means memory-only (the default).
	CacheDir string
	// MaxDumpObjects bounds the number of objects a /v1/heapdump response
	// carries; larger heaps are truncated (Snapshot.Truncated). Requests
	// may ask for less, never more (default 65536).
	MaxDumpObjects int
	// AllowFaultHeaders opts in to per-request fault injection via the
	// X-Fault-Inject / X-Fault-Seed headers. Off by default: the headers
	// let any client that can reach the daemon fail, delay or panic its
	// own requests, so they are an attack surface unless the operator
	// asks for them (gcsafed -allow-fault-headers; -chaos enables them
	// itself). While disabled, a request carrying the header is refused
	// with 403 rather than silently ignored.
	AllowFaultHeaders bool
	// Peering, when non-nil, joins this daemon to a cache-peering cluster
	// (internal/cluster): artifact keys are owned by exactly one member
	// via consistent hashing, misses for remotely owned keys try the
	// owner before computing locally, and /v1/peer/{get,put,update} serve
	// the peer protocol. Nil means standalone (the default).
	Peering *cluster.Peering
}

func (c Config) withDefaults() Config {
	if c.Parallel <= 0 {
		c.Parallel = par.Default()
	}
	if c.Workers <= 0 {
		c.Workers = c.Parallel
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = 256 << 20
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.RunTimeout == 0 {
		c.RunTimeout = 30 * time.Second
	}
	if c.MaxSteps == 0 {
		c.MaxSteps = 200_000_000
	}
	if c.MaxDumpObjects <= 0 {
		c.MaxDumpObjects = 65536
	}
	return c
}

// Server is the gcsafed daemon: an http.Handler plus its worker pool,
// artifact cache and metrics registry.
type Server struct {
	cfg   Config
	cache *artifact.Cache
	// pipeline is the stage-graph runner behind /v1/annotate, /v1/check,
	// /v1/compile and /v1/run. It shares the server's artifact cache (and
	// therefore its LRU budget and disk tier), so the whole-product
	// annotate/compile entries and the per-stage artifacts beneath them
	// compete for the same bytes and survive restarts together.
	pipeline *pipeline.Runner
	pool     *pool
	metrics  *metrics
	mux      *http.ServeMux

	// peering is the cluster membership and peer transport (nil when
	// standalone); codec is the artifact registry shared by the disk tier
	// and the peer wire, so both persist and transfer the same bytes.
	peering *cluster.Peering
	codec   artifact.DiskCodec

	// draining flips once graceful shutdown begins: /readyz fails and new
	// pipeline requests are refused with 503 + Retry-After so load
	// balancers route around the instance while in-flight work finishes.
	draining atomic.Bool

	// diskRecover / diskErr record the disk tier's startup recovery (or
	// why the tier is absent); the daemon runs memory-only on diskErr.
	diskRecover artifact.RecoverStats
	diskErr     error

	// compiles and annotations count actual pipeline executions (cache
	// misses that ran codegen / the annotator) — the counters the
	// stampede guarantee is stated in terms of.
	compiles    atomic.Uint64
	annotations atomic.Uint64
}

// New builds a daemon with its own cache and counters. A Config.CacheDir
// that cannot be opened is not fatal: the daemon degrades to memory-only
// caching and reports the failure via DiskErr and /metrics.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		cache:   artifact.New(cfg.CacheBytes),
		pool:    newPool(cfg.Workers, cfg.QueueDepth),
		metrics: newMetrics(),
		mux:     http.NewServeMux(),
	}
	s.pipeline = pipeline.NewRunner(s.cache)
	s.peering = cfg.Peering
	s.codec = artifactCodec()
	if cfg.CacheDir != "" {
		disk, rs, err := artifact.OpenDisk(cfg.CacheDir)
		s.diskRecover, s.diskErr = rs, err
		if err == nil {
			s.cache.AttachDisk(disk, s.codec)
		}
	}
	s.mux.Handle("/v1/annotate", s.handle("/v1/annotate", http.MethodPost, s.handleAnnotate))
	s.mux.Handle("/v1/check", s.handle("/v1/check", http.MethodPost, s.handleCheck))
	s.mux.Handle("/v1/compile", s.handle("/v1/compile", http.MethodPost, s.handleCompile))
	s.mux.Handle("/v1/run", s.handle("/v1/run", http.MethodPost, s.handleRun))
	s.mux.Handle("/v1/matrix", s.handle("/v1/matrix", http.MethodPost, s.handleMatrix))
	s.mux.Handle("/v1/heapdump", s.handle("/v1/heapdump", http.MethodPost, s.handleHeapdump))
	s.mux.Handle("/v1/peer/get", s.handle("/v1/peer/get", http.MethodPost, s.handlePeerGet))
	s.mux.Handle("/v1/peer/put", s.handle("/v1/peer/put", http.MethodPost, s.handlePeerPut))
	s.mux.Handle("/v1/peer/update", s.handle("/v1/peer/update", http.MethodPost, s.handlePeerUpdate))
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	return s
}

// StartDrain marks the daemon as draining: /readyz starts failing and
// new pipeline requests get 503 + Retry-After while in-flight requests
// run to completion. Call it before http.Server.Shutdown.
func (s *Server) StartDrain() { s.draining.Store(true) }

// Draining reports whether graceful shutdown has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// DiskErr reports why the disk tier is absent (nil when attached or
// never requested).
func (s *Server) DiskErr() error { return s.diskErr }

// DiskRecovery reports the disk tier's startup recovery outcome.
func (s *Server) DiskRecovery() artifact.RecoverStats { return s.diskRecover }

// Handler returns the daemon's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// EffectiveConfig returns the configuration actually in force — every
// zero-value field resolved to its documented default — so the daemon
// can log what it is really running with.
func (s *Server) EffectiveConfig() Config { return s.cfg }

// Peering returns the cluster membership handle (nil when standalone).
func (s *Server) Peering() *cluster.Peering { return s.peering }

// CacheStats exposes cache counters (tests, metrics).
func (s *Server) CacheStats() artifact.Stats { return s.cache.Stats() }

// Compiles reports how many times the server actually ran the compiler
// (cache hits excluded).
func (s *Server) Compiles() uint64 { return s.compiles.Load() }

// PipelineStats exposes the per-stage execution counters (tests, metrics).
func (s *Server) PipelineStats() []pipeline.StageStat { return s.pipeline.Stats() }

// pool is the bounded worker pool with load shedding: at most workers
// requests execute, at most queue more wait, and everything beyond that is
// rejected immediately.
type pool struct {
	tokens  chan struct{}
	queued  atomic.Int64
	maxWait int64
}

func newPool(workers, queue int) *pool {
	return &pool{tokens: make(chan struct{}, workers), maxWait: int64(queue)}
}

var errBusy = errors.New("server at capacity")

// acquire claims a worker slot, waiting in the bounded queue if all
// workers are busy. It fails fast with errBusy once the queue is full and
// with ctx.Err() if the caller gives up while queued.
func (p *pool) acquire(ctx context.Context) error {
	select {
	case p.tokens <- struct{}{}:
		return nil
	default:
	}
	if p.queued.Add(1) > p.maxWait {
		p.queued.Add(-1)
		return errBusy
	}
	defer p.queued.Add(-1)
	select {
	case p.tokens <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (p *pool) release() { <-p.tokens }

// saturated reports whether the waiting queue is full — the point where
// the next arrival would be shed.
func (p *pool) saturated() bool { return p.queued.Load() >= p.maxWait }

// apiError is a handler failure with its HTTP status.
type apiError struct {
	status int
	msg    string
}

func (e *apiError) Error() string { return e.msg }

func errf(status int, format string, args ...any) error {
	return &apiError{status: status, msg: fmt.Sprintf(format, args...)}
}

// handle wraps an endpoint with method filtering, body limiting, drain
// refusal, panic-to-500 recovery, the worker pool, fault-injection
// activation, and metrics accounting.
func (s *Server) handle(name, method string, fn func(w http.ResponseWriter, r *http.Request) error) http.Handler {
	em := s.metrics.endpoint(name)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		status := http.StatusOK
		finish := func() {
			em.requests.Add(1)
			if status >= 400 {
				em.errors.Add(1)
			}
			em.latency.observe(time.Since(start))
		}
		defer finish()
		// The recovery barrier: a panicking handler (or an injected panic)
		// must cost the daemon nothing but this one request. Declared after
		// finish so the 500 is recorded in the endpoint counters.
		defer func() {
			if p := recover(); p != nil {
				status = http.StatusInternalServerError
				s.metrics.recordPanic(name, p, debug.Stack())
				writeError(w, status, "internal error (panic recovered)")
			}
		}()
		if r.Method != method {
			status = http.StatusMethodNotAllowed
			writeError(w, status, "method not allowed")
			return
		}
		if s.draining.Load() {
			// Drain is not overload: 503 + Retry-After tells a load
			// balancer to take the instance out of rotation and come back,
			// where the queue-full 429 below means "slow down".
			s.metrics.drained.Add(1)
			status = http.StatusServiceUnavailable
			w.Header().Set("Retry-After", "1")
			writeError(w, status, "draining for shutdown")
			return
		}
		r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
		if err := s.pool.acquire(r.Context()); err != nil {
			if errors.Is(err, errBusy) {
				s.metrics.shed.Add(1)
				status = http.StatusTooManyRequests
			} else {
				status = statusForContextErr(err)
			}
			writeError(w, status, err.Error())
			return
		}
		defer s.pool.release()
		s.metrics.inflight.Add(1)
		defer s.metrics.inflight.Add(-1)
		// Fault activation runs inside the worker slot: an injected sleep
		// or error consumes bounded pool capacity like any other work, so
		// header-driven faults cannot grow goroutines past the queue limit.
		faults, err := s.requestFaults(r)
		if err != nil {
			status = statusFor(err)
			writeError(w, status, err.Error())
			return
		}
		if faults != nil {
			r = r.WithContext(faultinject.WithContext(r.Context(), faults))
			if err := faults.FireCtx(r.Context(), faultinject.PointServerHandler); err != nil {
				if errors.Is(err, faultinject.ErrInjected) {
					status = http.StatusInternalServerError
				} else {
					status = statusForContextErr(err)
				}
				writeError(w, status, err.Error())
				return
			}
		}
		if err := fn(w, r); err != nil {
			status = statusFor(err)
			writeError(w, status, err.Error())
		}
	})
}

// faultHeader and faultSeedHeader activate request-scoped fault
// injection: the header value is a faultinject spec (and optional seed)
// compiled into a Set that lives for this request only. Honored only
// under Config.AllowFaultHeaders.
const (
	faultHeader     = "X-Fault-Inject"
	faultSeedHeader = "X-Fault-Seed"
)

// requestFaults resolves the fault Set for a request: a per-request Set
// parsed from X-Fault-Inject when present (and the operator opted in),
// else the process-wide Set (nil when fault injection is entirely off).
func (s *Server) requestFaults(r *http.Request) (*faultinject.Set, error) {
	spec := r.Header.Get(faultHeader)
	if spec == "" {
		return faultinject.Global(), nil
	}
	if !s.cfg.AllowFaultHeaders {
		return nil, errf(http.StatusForbidden,
			"%s refused: header-driven fault injection is not enabled (-allow-fault-headers)", faultHeader)
	}
	seed := uint64(1)
	if v := r.Header.Get(faultSeedHeader); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return nil, errf(http.StatusBadRequest, "bad %s header: %q", faultSeedHeader, v)
		}
		seed = n
	}
	set, err := faultinject.Parse(spec, seed)
	if err != nil {
		return nil, errf(http.StatusBadRequest, "bad %s header: %v", faultHeader, err)
	}
	return set, nil
}

func statusFor(err error) int {
	var ae *apiError
	switch {
	case errors.As(err, &ae):
		return ae.status
	case isMaxBytesError(err):
		return http.StatusRequestEntityTooLarge
	default:
		return statusForContextErr(err)
	}
}

func statusForContextErr(err error) int {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return httpStatusClientClosedRequest
	default:
		return http.StatusInternalServerError
	}
}

// httpStatusClientClosedRequest is nginx's conventional status for a
// client that went away mid-request; net/http has no name for it.
const httpStatusClientClosedRequest = 499

func isMaxBytesError(err error) bool {
	var mbe *http.MaxBytesError
	return errors.As(err, &mbe)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz is the readiness probe, distinct from liveness: a live
// daemon is not ready while it is draining for shutdown or while its
// request queue is saturated (load would only be shed). Load balancers
// poll this to take the instance out of rotation without killing it.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	switch {
	case s.draining.Load():
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
	case s.pool.saturated():
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "saturated"})
	default:
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := s.metrics.snapshot(s.cache.Stats(), s.compiles.Load(), s.annotations.Load())
	snap.Pipeline = s.pipeline.Stats()
	if es := s.pipeline.ElisionStats(); es.Considered > 0 {
		snap.Elision = &es
	}
	snap.Draining = s.draining.Load()
	if s.peering != nil {
		cs := s.peering.Stats()
		snap.Cluster = &cs
	}
	if s.cfg.CacheDir != "" {
		if s.diskErr != nil {
			snap.DiskError = s.diskErr.Error()
		} else {
			rs := s.diskRecover
			snap.DiskRecovery = &rs
		}
	}
	writeJSON(w, http.StatusOK, snap)
}

// machineByName maps the wire names to machine configurations.
func machineByName(name string) (machine.Config, error) {
	switch name {
	case "", "ss10":
		return machine.SPARCstation10(), nil
	case "ss2":
		return machine.SPARCstation2(), nil
	case "p90":
		return machine.Pentium90(), nil
	}
	return machine.Config{}, errf(http.StatusBadRequest, "unknown machine %q (want ss2, ss10 or p90)", name)
}

// checkEngine validates a request's "engine" field. The field predates
// the single executor and stays for wire compatibility: "" and "interp"
// name the interpreter, anything else is a 400.
func checkEngine(name string) error {
	if name != "" && name != "interp" {
		return errf(http.StatusBadRequest, "unknown engine %q (want interp)", name)
	}
	return nil
}
