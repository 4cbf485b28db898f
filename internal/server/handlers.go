package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"time"

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

// AnnotateRequest asks for the C-to-C preprocessor: a translation unit
// and the annotator's switches.
type AnnotateRequest struct {
	Name   string `json:"name"`
	Source string `json:"source"`
	pipeline.AnnotateSpec
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

// unitName is a request's translation-unit name: its own, or "input.c".
func unitName(name string) string {
	if name == "" {
		return "input.c"
	}
	return name
}

// requestError translates a ladder failure into the handler error
// vocabulary: a bad recipe is a 400, context errors pass through raw (the
// middleware maps them to 504/499), injected faults are 500s, and stage
// failures are 422s, prefixed with their build phase except on the
// annotator's endpoints.
func requestError(err error, phase bool) error {
	var re *pipeline.RecipeError
	var se *pipeline.StageError
	switch {
	case errors.As(err, &re):
		return errf(http.StatusBadRequest, "%v", re.Err)
	case !errors.As(err, &se):
		return err
	case errors.Is(se.Err, context.Canceled) || errors.Is(se.Err, context.DeadlineExceeded):
		return se.Err
	case errors.Is(se.Err, faultinject.ErrInjected):
		return errf(http.StatusInternalServerError, "%v", se.Err)
	case phase:
		return errf(http.StatusUnprocessableEntity, "%s: %v", se.Phase(), se.Err)
	}
	return errf(http.StatusUnprocessableEntity, "%v", se.Err)
}

// annotate serves the request's annotator report from the pipeline's
// ladder; cache_hit means this node's memory or disk held it.
func (s *Server) annotate(ctx context.Context, req *AnnotateRequest) (*gcsafe.Result, bool, error) {
	res, hit, err := s.pipeline.Report(ctx, &pipeline.Recipe{
		Stage: pipeline.StageAnnotate, Name: unitName(req.Name), Source: req.Source, Annotator: req.AnnotateSpec,
	})
	return res, hit, requestError(err, false)
}

// warnings spells a report's diagnostics for the wire.
func warnings(res *gcsafe.Result) []string {
	var out []string
	for _, w := range res.Warnings {
		out = append(out, w.String())
	}
	return out
}

func (s *Server) handleAnnotate(w http.ResponseWriter, r *http.Request) error {
	var req AnnotateRequest
	if err := decode(r, &req); err != nil {
		return err
	}
	res, hit, err := s.annotate(r.Context(), &req)
	if err != nil {
		return err
	}
	writeJSON(w, http.StatusOK, AnnotateResponse{
		Output:     res.Output,
		Warnings:   warnings(res),
		Inserted:   res.Inserted,
		Suppressed: res.Suppressed,
		Temps:      res.Temps,
		Elided:     res.Elided,
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
	res, hit, err := s.annotate(r.Context(), &AnnotateRequest{
		Name: req.Name, Source: req.Source, AnnotateSpec: pipeline.AnnotateSpec{StrictCasts: true},
	})
	if err != nil {
		return err
	}
	writeJSON(w, http.StatusOK, CheckResponse{
		Warnings: warnings(res),
		Clean:    len(res.Warnings) == 0,
		CacheHit: hit,
	})
	return nil
}

// CompileRequest selects one cell of the paper's treatment space for a
// caller-supplied translation unit.
type CompileRequest struct {
	Name   string `json:"name"`
	Source string `json:"source"`
	pipeline.BuildSpec
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

// handleCompile serves the request's program from the pipeline's ladder;
// cache_hit means this node's memory or disk held it. Machines that
// differ only in cost model (ss2 and ss10) share one program.
func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) error {
	var req CompileRequest
	if err := decode(r, &req); err != nil {
		return err
	}
	sv, err := s.pipeline.Program(r.Context(), &pipeline.Recipe{
		Stage: req.LastStage(), Name: unitName(req.Name), Source: req.Source, Spec: pipeline.Spec{BuildSpec: req.BuildSpec},
	})
	if err != nil {
		return requestError(err, true)
	}
	resp := CompileResponse{Size: sv.Prog.Size(), Machine: sv.Machine.Name, CacheHit: sv.Hit}
	if req.Listing {
		resp.Listing = sv.Prog.Listing()
	}
	writeJSON(w, http.StatusOK, resp)
	return nil
}

// RunRequest compiles (through the cache) and executes a program: a
// treatment Spec plus the request's own bounds.
type RunRequest struct {
	CompileRequest
	pipeline.RunSpec
	// MaxSteps caps executed instructions; clamped to the server ceiling.
	MaxSteps uint64 `json:"max_steps"`
	// TimeoutMs caps the run's wall time, not a wait on a peer; clamped
	// to the server ceiling.
	TimeoutMs int64 `json:"timeout_ms"`
}

// RunResponse reports one execution. A run-time fault of the simulated
// program (including premature-reclamation detections and failed pointer
// checks) is data, not an HTTP error: the pipeline did its job. cache_hit
// is the program's, as on /v1/compile.
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

// execute serves the request's run from the pipeline's ladder, with the
// request's injected faults armed and the step limit clamped to the
// server ceiling, its execution under the request's clamped timeout. runErr
// is the run's own error, which is data to the caller; err is a rejected
// request, a failed build or a context error.
func (s *Server) execute(r *http.Request, req *RunRequest, heapProfile bool) (sv *pipeline.Served, runErr, err error) {
	steps, timeout := s.cfg.MaxSteps, s.cfg.RunTimeout
	if req.MaxSteps > 0 && req.MaxSteps < steps {
		steps = req.MaxSteps
	}
	if d := time.Duration(req.TimeoutMs) * time.Millisecond; d > 0 && d < timeout {
		timeout = d
	}
	sv, runErr = s.pipeline.Run(r.Context(), &pipeline.Recipe{
		Stage: pipeline.StageExecute, Name: unitName(req.Name), Source: req.Source,
		Spec: pipeline.Spec{BuildSpec: req.BuildSpec, RunSpec: req.RunSpec}, MaxSteps: steps, HeapProfile: heapProfile,
	}, timeout)
	if sv == nil || errors.Is(runErr, context.Canceled) || errors.Is(runErr, context.DeadlineExceeded) {
		return nil, nil, requestError(runErr, true)
	}
	return sv, runErr, nil
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) error {
	var req RunRequest
	if err := decode(r, &req); err != nil {
		return err
	}
	sv, runErr, err := s.execute(r, &req, false)
	if err != nil {
		return err
	}
	resp := RunResponse{Size: sv.Prog.Size(), CacheHit: sv.Hit}
	if res := sv.Result; res != nil {
		resp.Output = res.Output
		resp.ExitCode = res.ExitCode
		resp.Cycles = res.Cycles
		resp.Instrs = res.Instrs
		resp.Collections = res.GCStats.Collections
		resp.Allocated = res.GCStats.ObjectsAlloced
	}
	if runErr != nil {
		resp.Fault = runErr.Error()
		resp.StepLimit = errors.Is(runErr, interp.ErrInstrLimit)
		var ce *interp.CheckError
		resp.CheckFailed = errors.As(runErr, &ce)
	}
	writeJSON(w, http.StatusOK, resp)
	return nil
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
		opts, err := pipeline.BuildSpec{Machine: name}.BuildOptions()
		if err != nil {
			return errf(http.StatusBadRequest, "%v", err)
		}
		machines = append(machines, opts.Machine)
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RunTimeout)
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
