package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"time"

	"gcsafety/internal/artifact"
	"gcsafety/internal/faultinject"
	"gcsafety/internal/fuzz"
	"gcsafety/internal/gcsafe"
	"gcsafety/internal/interp"
	"gcsafety/internal/machine"
	"gcsafety/internal/pipeline"
)

// decode parses a JSON request body into v, translating the failure modes
// into their HTTP statuses (400 malformed, 413 oversized).
func decode(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		if isMaxBytesError(err) {
			return err
		}
		return errf(http.StatusBadRequest, "bad request body: %v", err)
	}
	return nil
}

// AnnotateRequest asks for the C-to-C preprocessor.
type AnnotateRequest struct {
	Name   string `json:"name"`
	Source string `json:"source"`
	// Mode is "safe" (default), "checked" or "temporal".
	Mode string `json:"mode"`
	// Style is "macro" (default) or "asm".
	Style             string `json:"style"`
	NoCopySuppression bool   `json:"no_copy_suppression"`
	NoIncDecExpansion bool   `json:"no_incdec_expansion"`
	BaseHeuristic     bool   `json:"base_heuristic"`
	CallSiteOnly      bool   `json:"call_site_only"`
	StrictCasts       bool   `json:"strict_casts"`
	// Elide turns on the liveness-based elision analysis: annotations the
	// pipeline's Liveness stage proves redundant are dropped.
	Elide bool `json:"elide"`
}

// AnnotateResponse returns the rewritten source and diagnostics.
type AnnotateResponse struct {
	Output     string   `json:"output"`
	Warnings   []string `json:"warnings"`
	Inserted   int      `json:"inserted"`
	Suppressed int      `json:"suppressed"`
	Temps      int      `json:"temps"`
	Elided     int      `json:"elided,omitempty"`
	CacheHit   bool     `json:"cache_hit"`
}

// resolve validates the request's options and derives the product's cache
// key: the pipeline's Annotate stage key, under the product's own kind.
// The stage key covers the file name, which the warnings carry.
func (req *AnnotateRequest) resolve() (gcsafe.Options, artifact.Key, error) {
	opts := gcsafe.Options{
		NoCopySuppression:  req.NoCopySuppression,
		NoIncDecExpansion:  req.NoIncDecExpansion,
		BaseHeuristic:      req.BaseHeuristic,
		CallSiteOnly:       req.CallSiteOnly,
		StrictCastWarnings: req.StrictCasts,
		Elide:              req.Elide,
	}
	switch req.Mode {
	case "", "safe":
	case "checked":
		opts.Mode = gcsafe.ModeChecked
	case "temporal":
		opts.Mode = gcsafe.ModeTemporal
	default:
		return opts, "", errf(http.StatusBadRequest, "unknown mode %q (want safe, checked or temporal)", req.Mode)
	}
	switch req.Style {
	case "", "macro":
	case "asm":
		opts.Style = gcsafe.EmitAsm
	default:
		return opts, "", errf(http.StatusBadRequest, "unknown style %q (want macro or asm)", req.Style)
	}
	return opts, artifact.NewKey("annotate").Str(string(pipeline.AnnotateKey(unitName(req.Name), req.Source, opts))).Sum(), nil
}

// unitName is a request's translation-unit name: its own, or "input.c".
func unitName(name string) string {
	if name == "" {
		return "input.c"
	}
	return name
}

// annotated is the cached product of one annotator execution. size is
// the accounted cache size, carried so the disk tier restores an entry
// with the same LRU charge it was computed with.
type annotated struct {
	output     string
	warnings   []string
	inserted   int
	suppressed int
	temps      int
	elided     int
	size       int64
}

// stageBuildError translates a pipeline build failure into the handler
// error vocabulary: context errors pass through raw (so the middleware
// maps them to 504/499), injected faults surface as 500s like every
// other injection, and genuine stage failures become 422s prefixed the
// way the pre-pipeline monolithic path spelled them.
func stageBuildError(err error) error {
	var se *pipeline.StageError
	if !errors.As(err, &se) {
		return err
	}
	if errors.Is(se.Err, context.Canceled) || errors.Is(se.Err, context.DeadlineExceeded) {
		return se.Err
	}
	if errors.Is(se.Err, faultinject.ErrInjected) {
		return errf(http.StatusInternalServerError, "%v", se.Err)
	}
	return errf(http.StatusUnprocessableEntity, "%s: %v", se.Phase(), se.Err)
}

// annotate runs the preprocessor through the artifact cache. The outer
// whole-product entry keyed by AnnotateRequest.resolve is what the disk
// tier persists and the stampede guarantee counts; beneath it the stage
// runner shares Lex/Parse/Typecheck with every other endpoint that saw
// the same source.
func (s *Server) annotate(ctx context.Context, req *AnnotateRequest) (*annotated, bool, error) {
	opts, key, err := req.resolve()
	if err != nil {
		return nil, false, err
	}
	src := req.Source
	v, hit, err := s.cache.GetOrCompute(ctx, key, func() (any, int64, error) {
		// Local memory and disk both missed. Before computing, try the
		// cluster rung of the ladder: the key's owning peer get-or-computes
		// it once for the whole cluster, from the request as its recipe.
		// Any peer failure falls through to a local compute — availability
		// over dedup.
		if pv, psize, ok := s.peerFetch(ctx, key, familyAnnotate, req); ok {
			return pv, psize, nil
		}
		// annotations counts true local annotator executions only (not
		// artifacts fetched from peers), so summing the counter across a
		// cluster measures how many times the work was really done.
		s.annotations.Add(1)
		res, _, err := s.pipeline.Annotate(ctx, unitName(req.Name), src, opts)
		if err != nil {
			var se *pipeline.StageError
			if errors.As(err, &se) {
				// The monolithic path reported annotator/parser errors
				// bare, with no stage prefix; keep that wire format.
				if errors.Is(se.Err, context.Canceled) || errors.Is(se.Err, context.DeadlineExceeded) {
					return nil, 0, se.Err
				}
				if errors.Is(se.Err, faultinject.ErrInjected) {
					return nil, 0, errf(http.StatusInternalServerError, "%v", se.Err)
				}
				return nil, 0, errf(http.StatusUnprocessableEntity, "%v", se.Err)
			}
			return nil, 0, err
		}
		a := &annotated{
			output:     res.Output,
			inserted:   res.Inserted,
			suppressed: res.Suppressed,
			temps:      res.Temps,
			elided:     res.Elided,
			size:       int64(len(src) + len(res.Output) + 256),
		}
		for _, w := range res.Warnings {
			a.warnings = append(a.warnings, w.String())
		}
		// A fallback compute of a remotely owned key leaves the owner
		// without the artifact; repair the placement asynchronously.
		s.peerRepair(ctx, key, a)
		return a, a.size, nil
	})
	if err != nil {
		return nil, false, err
	}
	return v.(*annotated), hit, nil
}

func (s *Server) handleAnnotate(w http.ResponseWriter, r *http.Request) error {
	var req AnnotateRequest
	if err := decode(r, &req); err != nil {
		return err
	}
	a, hit, err := s.annotate(r.Context(), &req)
	if err != nil {
		return err
	}
	writeJSON(w, http.StatusOK, AnnotateResponse{
		Output:     a.output,
		Warnings:   a.warnings,
		Inserted:   a.inserted,
		Suppressed: a.suppressed,
		Temps:      a.temps,
		Elided:     a.elided,
		CacheHit:   hit,
	})
	return nil
}

// CheckRequest asks for source diagnostics only: the preprocessor's
// warnings (nonpointer-to-pointer conversions, memcpy shapes, and — by
// default here — the strict structure-cast check), without the rewritten
// output.
type CheckRequest struct {
	Name   string `json:"name"`
	Source string `json:"source"`
}

// CheckResponse lists the diagnostics.
type CheckResponse struct {
	Warnings []string `json:"warnings"`
	Clean    bool     `json:"clean"`
	CacheHit bool     `json:"cache_hit"`
}

func (s *Server) handleCheck(w http.ResponseWriter, r *http.Request) error {
	var req CheckRequest
	if err := decode(r, &req); err != nil {
		return err
	}
	a, hit, err := s.annotate(r.Context(), &AnnotateRequest{Name: req.Name, Source: req.Source, StrictCasts: true})
	if err != nil {
		return err
	}
	writeJSON(w, http.StatusOK, CheckResponse{
		Warnings: a.warnings,
		Clean:    len(a.warnings) == 0,
		CacheHit: hit,
	})
	return nil
}

// CompileRequest selects one cell of the paper's treatment space for a
// caller-supplied translation unit.
type CompileRequest struct {
	Name   string `json:"name"`
	Source string `json:"source"`
	// Machine is ss2, ss10 (default) or p90.
	Machine string `json:"machine"`
	// Annotate is "none" (default), "safe", "checked" or "temporal".
	Annotate string `json:"annotate"`
	Optimize bool   `json:"optimize"`
	// Post runs the peephole postprocessor.
	Post bool `json:"post"`
	// Elide turns on the liveness-based elision analysis for annotated
	// treatments.
	Elide bool `json:"elide"`
	// Listing asks for the assembly listing in the response.
	Listing bool `json:"listing"`
}

// CompileResponse describes the compiled artifact.
type CompileResponse struct {
	// Size is the static instruction count of the processed code.
	Size     int    `json:"size"`
	Machine  string `json:"machine"`
	Listing  string `json:"listing,omitempty"`
	CacheHit bool   `json:"cache_hit"`
}

// compiled is the cached product of one compiler execution. The Program
// is immutable after the peephole pass and shared by every subsequent
// run. accounted is the cache size charge, carried for the disk tier.
type compiled struct {
	prog      *machine.Program
	size      int
	accounted int64
}

// resolve validates the request's treatment, spells it as pipeline
// options, and derives the product's cache key: the pipeline's final
// stage key, under the product's own kind. Machines that differ only in
// cost model (ss2 and ss10) share one product, as they share one program.
func (req *CompileRequest) resolve() (pipeline.Options, artifact.Key, error) {
	opts := pipeline.Options{Optimize: req.Optimize, Post: req.Post}
	opts.AnnotateOptions.Elide = req.Elide
	cfg, err := machineByName(req.Machine)
	if err != nil {
		return opts, "", err
	}
	opts.Machine = cfg
	switch req.Annotate {
	case "", "none":
	case "safe":
		opts.Annotate = true
	case "checked":
		opts.Annotate = true
		opts.AnnotateOptions.Mode = gcsafe.ModeChecked
	case "temporal":
		opts.Annotate = true
		opts.AnnotateOptions.Mode = gcsafe.ModeTemporal
	default:
		return opts, "", errf(http.StatusBadRequest, "unknown annotate %q (want none, safe, checked or temporal)", req.Annotate)
	}
	return opts, artifact.NewKey("compile").Str(string(opts.Key(unitName(req.Name), req.Source))).Sum(), nil
}

// compile builds one treatment cell through the artifact cache: the
// whole-product entry under key (CompileRequest.resolve) preserves the
// pre-pipeline stampede guarantee (one compile per distinct cell under
// arbitrary concurrency) and the disk-tier restart story, while the stage
// runner beneath it shares the front end and intermediate artifacts
// across cells that differ only in annotation, machine, opt level or
// peephole flag.
func (s *Server) compile(ctx context.Context, req *CompileRequest, opts pipeline.Options, key artifact.Key) (*compiled, bool, error) {
	v, hit, err := s.cache.GetOrCompute(ctx, key, func() (any, int64, error) {
		// The cluster rung: ask the owning peer before running codegen
		// locally (see annotate for the ladder rationale).
		if pv, psize, ok := s.peerFetch(ctx, key, familyCompile, req); ok {
			return pv, psize, nil
		}
		// compiles counts true local compiler executions only — the
		// cluster-wide dedup gate is stated in terms of this counter.
		s.compiles.Add(1)
		res, err := s.pipeline.Build(ctx, unitName(req.Name), req.Source, opts)
		if err != nil {
			return nil, 0, stageBuildError(err)
		}
		prog := res.Prog
		c := &compiled{prog: prog, size: prog.Size()}
		// Accounted size: instruction words plus the static segment, with
		// a per-function overhead allowance.
		c.accounted = int64(c.size)*16 + int64(len(prog.Data)) + int64(len(prog.Funcs))*64 + 256
		s.peerRepair(ctx, key, c)
		return c, c.accounted, nil
	})
	if err != nil {
		return nil, false, err
	}
	return v.(*compiled), hit, nil
}

func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) error {
	var req CompileRequest
	if err := decode(r, &req); err != nil {
		return err
	}
	opts, key, err := req.resolve()
	if err != nil {
		return err
	}
	c, hit, err := s.compile(r.Context(), &req, opts, key)
	if err != nil {
		return err
	}
	resp := CompileResponse{Size: c.size, Machine: opts.Machine.Name, CacheHit: hit}
	if req.Listing {
		resp.Listing = c.prog.Listing()
	}
	writeJSON(w, http.StatusOK, resp)
	return nil
}

// RunRequest compiles (through the cache) and executes a program.
type RunRequest struct {
	CompileRequest
	// Engine must be "" or "interp", the one executor; any other name is
	// a 400.
	Engine string `json:"engine"`
	// Input is the byte stream consumed by getchar().
	Input string `json:"input"`
	// GCEvery triggers a collection every n instructions (async regime).
	GCEvery uint64 `json:"gc_every"`
	// CollectAtEveryAlloc forces a collection at every allocation (the
	// adversarial schedule).
	CollectAtEveryAlloc bool `json:"collect_at_every_alloc"`
	// Validate arms the premature-reclamation detector.
	Validate bool `json:"validate"`
	// Temporal arms the allocation-epoch checker (use with annotate
	// "temporal" so frees reach the runtime as GC_free).
	Temporal bool `json:"temporal"`
	// Threads > 1 runs the program on the concurrent-mutator simulation.
	Threads int `json:"threads"`
	// SchedSeed selects the deterministic interleaving (0 = default).
	SchedSeed uint64 `json:"sched_seed"`
	// CollectAtSwitch forces a collection at every context switch (the
	// adversarial concurrent schedule).
	CollectAtSwitch bool `json:"collect_at_switch"`
	// BaseOnly selects the collector's Extensions-section operating mode.
	BaseOnly bool `json:"base_only"`
	// MaxSteps caps executed instructions; clamped to the server ceiling.
	MaxSteps uint64 `json:"max_steps"`
	// TimeoutMs caps wall time; clamped to the server ceiling.
	TimeoutMs int64 `json:"timeout_ms"`
}

// RunResponse reports one execution. A run-time fault of the simulated
// program (including premature-reclamation detections and failed pointer
// checks) is data, not an HTTP error: the pipeline did its job.
type RunResponse struct {
	Output      string `json:"output"`
	ExitCode    int32  `json:"exit_code"`
	Fault       string `json:"fault,omitempty"`
	CheckFailed bool   `json:"check_failed,omitempty"`
	StepLimit   bool   `json:"step_limit,omitempty"`
	Cycles      uint64 `json:"cycles"`
	Instrs      uint64 `json:"instrs"`
	Collections uint64 `json:"gc_collections"`
	Allocated   uint64 `json:"gc_objects_allocated"`
	Size        int    `json:"size"`
	CacheHit    bool   `json:"cache_hit"`
}

// validate checks the request's execution knobs: the engine name and
// the thread count.
func (req *RunRequest) validate() error {
	if err := checkEngine(req.Engine); err != nil {
		return err
	}
	if req.Threads < 0 || req.Threads > maxRunThreads {
		return errf(http.StatusBadRequest, "threads %d out of range (max %d)", req.Threads, maxRunThreads)
	}
	return nil
}

// executed is one run request's outcome: the compiled product, the run's
// result and its own error, which is data to the caller, and whether
// each came from the cache.
type executed struct {
	c          *compiled
	compileHit bool
	res        *interp.Result
	runHit     bool
	runErr     error
}

// execute compiles the request's program through the product cache and
// runs it on the pipeline's Execute stage, with the step limit clamped to
// the server ceiling and the request's injected faults armed. A run that
// was computed rather than shared is recorded in /metrics. The error is a
// rejected request, a failed compile or a context error.
func (s *Server) execute(r *http.Request, req *RunRequest, heapProfile bool) (*executed, error) {
	opts, key, err := req.resolve()
	if err != nil {
		return nil, err
	}
	if err := req.validate(); err != nil {
		return nil, err
	}
	x := &executed{}
	if x.c, x.compileHit, err = s.compile(r.Context(), &req.CompileRequest, opts, key); err != nil {
		return nil, err
	}
	steps := s.cfg.MaxSteps
	if req.MaxSteps > 0 && req.MaxSteps < steps {
		steps = req.MaxSteps
	}
	ctx, cancel := s.runContext(r.Context(), req.TimeoutMs)
	defer cancel()
	x.res, x.runHit, x.runErr = s.pipeline.Execute(ctx, x.c.prog, key, interp.Options{
		Config:              opts.Machine,
		Input:               req.Input,
		GCEveryInstrs:       req.GCEvery,
		CollectAtEveryAlloc: req.CollectAtEveryAlloc,
		Validate:            req.Validate,
		Temporal:            req.Temporal,
		Threads:             req.Threads,
		SchedSeed:           req.SchedSeed,
		CollectAtSwitch:     req.CollectAtSwitch,
		BaseOnlyHeap:        req.BaseOnly,
		MaxInstrs:           steps,
		Faults:              faultinject.FromContext(r.Context()),
		HeapProfile:         heapProfile,
	})
	if errors.Is(x.runErr, context.Canceled) || errors.Is(x.runErr, context.DeadlineExceeded) {
		return nil, x.runErr
	}
	if x.res != nil && !x.runHit {
		s.metrics.runs.record(x.res.Instrs, x.res.Cycles, x.res.GCStats, x.runErr != nil)
	}
	return x, nil
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) error {
	var req RunRequest
	if err := decode(r, &req); err != nil {
		return err
	}
	x, err := s.execute(r, &req, false)
	if err != nil {
		return err
	}
	resp := RunResponse{Size: x.c.size, CacheHit: x.compileHit}
	if res := x.res; res != nil {
		resp.Output = res.Output
		resp.ExitCode = res.ExitCode
		resp.Cycles = res.Cycles
		resp.Instrs = res.Instrs
		resp.Collections = res.GCStats.Collections
		resp.Allocated = res.GCStats.ObjectsAlloced
	}
	if runErr := x.runErr; runErr != nil {
		resp.Fault = runErr.Error()
		resp.StepLimit = errors.Is(runErr, interp.ErrInstrLimit)
		var ce *interp.CheckError
		resp.CheckFailed = errors.As(runErr, &ce)
	}
	writeJSON(w, http.StatusOK, resp)
	return nil
}

// runContext derives the execution context: the request's own context,
// bounded by the server ceiling, tightened further if the request asked
// for less.
func (s *Server) runContext(parent context.Context, timeoutMs int64) (context.Context, context.CancelFunc) {
	d := s.cfg.RunTimeout
	if timeoutMs > 0 {
		if rd := time.Duration(timeoutMs) * time.Millisecond; rd < d {
			d = rd
		}
	}
	return context.WithTimeout(parent, d)
}

// MatrixRequest runs one generated program through the differential
// treatment matrix (see internal/fuzz): the service form of fuzzcheck.
type MatrixRequest struct {
	// Seed selects the generated program deterministically.
	Seed int64 `json:"seed"`
	// Steps is the number of operations in the program body (default 8,
	// capped at 64).
	Steps int `json:"steps"`
	// Machines restricts the matrix (subset of ss2, ss10, p90).
	Machines []string `json:"machines"`
	// SkipAdversarial drops the hostile-schedule runs.
	SkipAdversarial bool `json:"skip_adversarial"`
	// Engine must be "" or "interp", the one executor; any other name is
	// a 400.
	Engine string `json:"engine"`
}

// MatrixResponse summarizes the matrix outcome.
type MatrixResponse struct {
	Label                 string   `json:"label"`
	Source                string   `json:"source"`
	Want                  string   `json:"want"`
	Treatments            int      `json:"treatments"`
	Violations            []string `json:"violations"`
	UnsafeFailures        int      `json:"unsafe_failures"`
	PrematureReclamations int      `json:"premature_reclamations"`
	// TemporalDetections counts temporal-mode treatments that correctly
	// flagged the program's seeded use-after-free or double-free.
	TemporalDetections int `json:"temporal_detections"`
	// RaceDetections counts unsafe concurrent treatments whose failure was
	// a cross-thread premature reclamation.
	RaceDetections int `json:"race_detections"`
}

const maxMatrixSteps = 64

// maxRunThreads bounds the concurrent-mutator simulation per request: the
// threads share one simulated stack region, and the interpreter rejects
// segments that would be too small anyway.
const maxRunThreads = 16

func (s *Server) handleMatrix(w http.ResponseWriter, r *http.Request) error {
	var req MatrixRequest
	if err := decode(r, &req); err != nil {
		return err
	}
	if req.Steps <= 0 {
		req.Steps = 8
	}
	if req.Steps > maxMatrixSteps {
		return errf(http.StatusBadRequest, "steps %d exceeds the cap (%d)", req.Steps, maxMatrixSteps)
	}
	var machines []machine.Config
	for _, name := range req.Machines {
		cfg, err := machineByName(name)
		if err != nil {
			return err
		}
		machines = append(machines, cfg)
	}
	if err := checkEngine(req.Engine); err != nil {
		return err
	}
	ctx, cancel := s.runContext(r.Context(), 0)
	defer cancel()
	p := fuzz.Generate(req.Seed, req.Steps)
	m, err := fuzz.RunMatrixContext(ctx, p, fuzz.MatrixOptions{
		Machines:        machines,
		SkipAdversarial: req.SkipAdversarial,
		MaxInstrs:       s.cfg.MaxSteps,
		Parallel:        s.cfg.Parallel,
	})
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return err
		}
		return errf(http.StatusUnprocessableEntity, "matrix: %v", err)
	}
	resp := MatrixResponse{
		Label:                 p.Label,
		Source:                p.Source,
		Want:                  p.Want,
		Treatments:            len(m.Results),
		Violations:            []string{},
		UnsafeFailures:        len(m.UnsafeFailures),
		PrematureReclamations: m.PrematureReclamations(),
		TemporalDetections:    len(m.TemporalDetections),
		RaceDetections:        m.RaceDetections(),
	}
	for _, v := range m.Violations {
		resp.Violations = append(resp.Violations, v.Name()+": "+describeOutcome(v))
	}
	writeJSON(w, http.StatusOK, resp)
	return nil
}

func describeOutcome(r fuzz.TreatmentResult) string {
	if r.Err != nil {
		return r.Err.Error()
	}
	return "output diverged"
}
