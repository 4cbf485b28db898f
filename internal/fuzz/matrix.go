package fuzz

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"

	"gcsafety/internal/artifact"
	"gcsafety/internal/faultinject"
	"gcsafety/internal/gc"
	"gcsafety/internal/interp"
	"gcsafety/internal/machine"
	"gcsafety/internal/par"
	"gcsafety/internal/pipeline"
)

// Treatment is one cell of the differential matrix: a treatment Spec,
// built and run under the matrix's collection regime (see runTreatment).
type Treatment struct {
	pipeline.Spec
	// Adversarial runs under the maximally hostile collection schedule: a
	// forced collection at every allocation and between every two
	// instructions, with the premature-reclamation detector armed. For
	// concurrent treatments (Threads > 1) the regime is a collection at
	// every allocation and at every context switch instead — the same
	// adversary generalized to adversarial interleavings.
	Adversarial bool
}

// cell is the benign treatment of one build on machine m: annotate is a
// Spec annotation name, "" for none. A temporal build runs with the
// epoch checker armed.
func cell(m, annotate string, optimize, post bool) Treatment {
	var t Treatment
	t.Machine, t.Annotate, t.Optimize, t.Post = m, annotate, optimize, post
	t.Temporal = annotate == "temporal"
	return t
}

func (t Treatment) elided() Treatment {
	t.Elide = true
	return t
}

func (t Treatment) adversarial() Treatment {
	t.Adversarial = true
	return t
}

func (t Treatment) concurrent() Treatment {
	t.Threads, t.SchedSeed = concThreads, defaultSchedSeed
	return t
}

// defaultSchedSeed is the fixed interleaving seed of the standard
// concurrent treatments; differential fuzzing varies programs, not
// schedules, so one fully deterministic schedule per seed keeps violations
// reproducible.
const defaultSchedSeed = 0x9E3779B97F4A7C15

// concThreads is the thread count of the standard concurrent treatments:
// main plus up to three generated worker threads.
const concThreads = 4

// Name is a compact human-readable treatment label.
func (t Treatment) Name() string {
	var b strings.Builder
	b.WriteString(t.Machine)
	if t.Optimize {
		b.WriteString("/-O")
	} else {
		b.WriteString("/-g")
	}
	if t.Annotated() {
		b.WriteString(" " + t.Annotate)
	}
	if t.Elide {
		b.WriteString(" elided")
	}
	if t.Post {
		b.WriteString(" post")
	}
	if t.Threads > 1 {
		fmt.Fprintf(&b, " mt%d", t.Threads)
	}
	if t.Adversarial {
		b.WriteString(" adv")
	}
	return b.String()
}

// MustAgree reports whether the treatment is required to reproduce the
// model output. Only the unannotated optimized build — the configuration
// the paper demonstrates is not GC-safe — is exempt.
func (t Treatment) MustAgree() bool {
	return t.Annotated() || !t.Optimize
}

// TreatmentResult is the outcome of running one treatment.
type TreatmentResult struct {
	Treatment
	Output string
	Err    error // run-time fault, or nil
}

// Agreed reports whether the run completed and reproduced the model.
func (r TreatmentResult) Agreed(want string) bool {
	return r.Err == nil && r.Output == want
}

// MatrixOptions configures a matrix run.
type MatrixOptions struct {
	// Machines are the target configurations (default: the three paper
	// machines).
	Machines []machine.Config
	// SkipAdversarial drops the hostile-schedule runs (used by callers
	// that only want output agreement under the benign regime).
	SkipAdversarial bool
	// StopOnViolation aborts the matrix at the first violation.
	StopOnViolation bool
	// MaxInstrs caps each treatment run's executed instructions (0 = the
	// interpreter default). With RunMatrixContext's deadline support this
	// is what keeps runaway generated programs from hanging a campaign.
	MaxInstrs uint64
	// Faults, when non-nil, is injected into every treatment run's
	// interpreter (see internal/faultinject): the campaign then measures
	// whether the harness classifies injected failures cleanly rather
	// than whether treatments agree. A must-agree treatment that faults
	// under injection surfaces as an ordinary violation, which is exactly
	// what makes fault campaigns deterministic regression tests for the
	// error paths. Every treatment fires the one Set, so a faulted matrix
	// runs its treatments one at a time, in treatment order, whatever
	// Parallel says.
	Faults *faultinject.Set
	// Parallel is how many treatments run concurrently (0 = the shared
	// default: GCSAFETY_PARALLEL, else GOMAXPROCS). Treatments are
	// shared-nothing — each compiles its own program and owns its machine
	// and heap — and results are classified in treatment order afterwards,
	// so the MatrixResult is identical at any width.
	Parallel int
}

// MatrixResult aggregates all treatment runs of one program.
type MatrixResult struct {
	Program *Program
	Results []TreatmentResult
	// Violations are must-agree treatments that faulted or diverged from
	// the model: each one is a real finding (a compiler, annotator,
	// collector or harness bug).
	Violations []TreatmentResult
	// UnsafeFailures are unannotated optimized runs that faulted or
	// diverged. They demonstrate the paper's hazard and are expected, not
	// findings; the premature-reclamation ones are the interesting kind.
	UnsafeFailures []TreatmentResult
	// TemporalDetections are temporal-mode treatments that correctly
	// reported a seeded use-after-free/double-free as a TemporalError. For
	// a program with TemporalHazards > 0 every temporal treatment must land
	// here; a temporal treatment that instead agrees (silent pass) or fails
	// some other way is a Violation — a missed detection is as much a
	// finding as a wrong one.
	TemporalDetections []TreatmentResult
}

// PrematureReclamations counts unsafe failures whose fault is the
// detector's "not inside any live object" heap error — the paper's
// premature-collection scenario, as opposed to mere output divergence.
func (m *MatrixResult) PrematureReclamations() int {
	n := 0
	for _, r := range m.UnsafeFailures {
		if IsReclamationFault(r.Err) {
			n++
		}
	}
	return n
}

// IsReclamationFault reports whether err is the premature-reclamation
// detector firing (an access inside the heap but not inside any live
// object).
func IsReclamationFault(err error) bool {
	var ge *gc.Error
	return errors.As(err, &ge) && strings.Contains(ge.Msg, "not inside any live object")
}

// IsTemporalFault reports whether err is the temporal checker firing (a
// use-after-free, double-free or recycled-storage access detected through
// allocation epochs).
func IsTemporalFault(err error) bool {
	var te *interp.TemporalError
	return errors.As(err, &te)
}

// RaceDetections counts unsafe failures of concurrent treatments whose
// fault is the premature-reclamation detector — a mutator that held a
// derived pointer across a collection another thread's allocation (or a
// schedule point) triggered: the cross-thread-escape hazard demonstrated.
func (m *MatrixResult) RaceDetections() int {
	n := 0
	for _, r := range m.UnsafeFailures {
		if r.Threads > 1 && IsReclamationFault(r.Err) {
			n++
		}
	}
	return n
}

// Treatments expands opt into the full treatment list: the cross-product
// {none, safe, checked} x {-g, -O} x {peephole on/off} per machine under
// the benign schedule, plus the adversarial-schedule runs — the annotated
// optimized builds (with and without peephole) on every machine, the
// debuggable and checked builds on the first machine, and the unannotated
// optimized build on every machine (expected to fail; recorded) — plus the
// two new checker columns: temporal-mode builds (optimized everywhere,
// debuggable and adversarial on the first machine) and the concurrent-
// mutator treatments on the first machine (safe/checked/temporal annotated,
// and the unannotated optimized build, which is expected to fail when a
// generated worker races a collection) — plus, on the first machine, the
// liveness-elision twins of the safe and checked cells under both the
// benign and adversarial regimes.
func Treatments(opt MatrixOptions) []Treatment {
	machines := opt.Machines
	if len(machines) == 0 {
		machines = machine.Configs()
	}
	m0 := machines[0].ShortName()
	var ts []Treatment
	for _, cfg := range machines {
		for _, ann := range []string{"", "safe", "checked"} {
			for _, optimize := range []bool{false, true} {
				for _, post := range []bool{false, true} {
					ts = append(ts, cell(cfg.ShortName(), ann, optimize, post))
				}
			}
		}
	}
	for _, cfg := range machines {
		m := cfg.ShortName()
		ts = append(ts,
			cell(m, "safe", true, false).adversarial(),
			cell(m, "safe", true, true).adversarial(),
			cell(m, "", true, false).adversarial(),
		)
	}
	ts = append(ts,
		cell(m0, "", false, false).adversarial(),
		cell(m0, "checked", true, false).adversarial(),
		// Elided treatments (first machine): each is the elision twin of
		// a benign or adversarial cell above, so the matrix differentially
		// tests that elision preserves behavior — both twins must
		// reproduce the model, and the elided checked builds must catch
		// everything the unelided ones do.
		cell(m0, "safe", true, false).elided(),
		cell(m0, "safe", true, true).elided(),
		cell(m0, "checked", false, false).elided(),
		cell(m0, "checked", true, false).elided(),
		cell(m0, "safe", true, false).adversarial().elided(),
		cell(m0, "checked", true, false).adversarial().elided(),
	)
	// Temporal-mode treatments: the optimized build on every machine, plus
	// the debuggable build on the first.
	for _, cfg := range machines {
		ts = append(ts, cell(cfg.ShortName(), "temporal", true, false))
	}
	ts = append(ts,
		cell(m0, "temporal", false, false),
		// Concurrent-mutator treatments (first machine): N threads over
		// one shared heap under the fixed deterministic interleaving.
		cell(m0, "safe", true, false).concurrent(),
		cell(m0, "safe", false, false).concurrent(),
		cell(m0, "checked", true, false).concurrent(),
		cell(m0, "temporal", true, false).concurrent(),
		cell(m0, "", true, false).concurrent(),
		cell(m0, "temporal", true, false).adversarial(),
		cell(m0, "safe", true, false).concurrent().adversarial(),
		cell(m0, "", true, false).concurrent().adversarial(),
	)
	if opt.SkipAdversarial {
		ts = slices.DeleteFunc(ts, func(t Treatment) bool { return t.Adversarial })
	}
	return ts
}

// RunTreatment compiles and executes p under one treatment. The returned
// error is a harness-level failure (the program did not parse, annotate or
// compile) and aborts the whole matrix; run-time faults are reported inside
// the TreatmentResult.
func RunTreatment(p *Program, t Treatment) (TreatmentResult, error) {
	return RunTreatmentContext(context.Background(), p, t, 0)
}

// RunTreatmentContext is RunTreatment under a context and an instruction
// budget (0 = interpreter default). Context expiry is a harness-level
// outcome — the treatment was not measured — never a violation.
func RunTreatmentContext(ctx context.Context, p *Program, t Treatment, maxInstrs uint64) (TreatmentResult, error) {
	return runTreatment(ctx, pipeline.NewRunner(artifact.New(0)), p, t, maxInstrs, nil)
}

// runTreatment builds and executes one treatment on the matrix's shared
// stage-graph pipeline: treatments differing only in execution regime
// (or only in back-end options) reuse cached front-end stages, and
// treatments differing only in cost model share one run. Injected faults
// reach both the pipeline stages (via the build context) and the
// interpreter (via the run options); an injected build failure is a
// treatment outcome, not a harness error, exactly like an injected
// run-time fault.
func runTreatment(ctx context.Context, runner *pipeline.Runner, p *Program, t Treatment, maxInstrs uint64, faults *faultinject.Set) (TreatmentResult, error) {
	r := TreatmentResult{Treatment: t}
	if err := ctx.Err(); err != nil {
		return r, fmt.Errorf("matrix: %w", err)
	}
	build, run, err := t.Options()
	if err != nil {
		return r, err
	}
	bctx := ctx
	if faults != nil {
		bctx = faultinject.WithContext(ctx, faults)
	}
	b, err := runner.Build(bctx, "fuzz.c", p.Source, build)
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return r, fmt.Errorf("matrix: %w", err)
		}
		if errors.Is(err, faultinject.ErrInjected) {
			r.Err = err
			return r, nil
		}
		var se *pipeline.StageError
		if errors.As(err, &se) {
			return r, fmt.Errorf("%s: %w", se.Phase(), se.Err)
		}
		return r, err
	}
	// The matrix's regime policy: the detector always armed, the
	// campaign's step budget and faults, and the collection schedule.
	run.Validate = true
	run.MaxInstrs = maxInstrs
	run.Faults = faults
	switch {
	case t.Adversarial && t.Threads > 1:
		// Concurrent adversary: a full collection at every allocation and at
		// every context switch, the hostile-interleaving regime.
		run.CollectAtEveryAlloc = true
		run.CollectAtSwitch = true
	case t.Adversarial:
		run.GCEveryInstrs = 1
		run.CollectAtEveryAlloc = true
	default:
		// Benign but nontrivial schedule: allocation-triggered collections
		// plus a mild asynchronous tick, so the collector genuinely runs.
		run.GCEveryInstrs = 211
		run.TriggerBytes = 8 << 10
	}
	res, _, err := runner.Execute(bctx, b.Prog, b.Key, run)
	if res != nil {
		r.Output = res.Output
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return r, fmt.Errorf("matrix: %w", err)
	}
	r.Err = err
	return r, nil
}

// RunMatrix runs p under every treatment and classifies the outcomes. The
// returned error reports harness-level failures only (programs that do not
// compile); treatment disagreements are data, in MatrixResult.
func RunMatrix(p *Program, opt MatrixOptions) (*MatrixResult, error) {
	return RunMatrixContext(context.Background(), p, opt)
}

// RunMatrixContext is RunMatrix under a context: the deadline bounds the
// whole matrix, including each treatment's interpreter run.
//
// Treatments execute concurrently (MatrixOptions.Parallel wide) into a
// positional slice, and classification then walks that slice in treatment
// order — so Results ordering, the first-reported harness error, and
// StopOnViolation truncation are all exactly what a sequential run
// produces. A width of 1 runs fully inline.
func RunMatrixContext(ctx context.Context, p *Program, opt MatrixOptions) (*MatrixResult, error) {
	m := &MatrixResult{Program: p}
	ts := Treatments(opt)
	results := make([]TreatmentResult, len(ts))
	errs := make([]error, len(ts))
	width := opt.Parallel
	switch {
	case opt.Faults != nil:
		// Every treatment fires the one fault set, so which treatment an
		// after=N rule hits depends on the order they run in.
		width = 1
	case width <= 0:
		width = par.Default()
	}
	// One pipeline per matrix: the treatments of one program share a
	// front end, often whole compiled programs, and the runs of programs
	// that differ only in cost model; concurrent treatments coalesce per
	// stage via singleflight.
	runner := pipeline.NewRunner(artifact.New(0))
	par.ForEach(width, len(ts), func(i int) {
		results[i], errs[i] = runTreatment(ctx, runner, p, ts[i], opt.MaxInstrs, opt.Faults)
	})
	for i, t := range ts {
		if err := errs[i]; err != nil {
			return m, fmt.Errorf("%s [%s]: %w", p.Label, t.Name(), err)
		}
	}
	for i, t := range ts {
		r := results[i]
		m.Results = append(m.Results, r)
		if t.Temporal && p.TemporalHazards > 0 {
			// The program seeds a use-after-free or double-free: the
			// temporal checker is required to fire. Anything else —
			// agreement included — is a missed detection, hence a violation.
			if IsTemporalFault(r.Err) {
				m.TemporalDetections = append(m.TemporalDetections, r)
				continue
			}
			m.Violations = append(m.Violations, r)
			if opt.StopOnViolation {
				return m, nil
			}
			continue
		}
		if r.Agreed(p.Want) {
			continue
		}
		if r.MustAgree() {
			m.Violations = append(m.Violations, r)
			if opt.StopOnViolation {
				return m, nil
			}
		} else {
			m.UnsafeFailures = append(m.UnsafeFailures, r)
		}
	}
	return m, nil
}

// Describe renders a violation report: the treatment, what was expected,
// what happened, and the program.
func Describe(p *Program, rs []TreatmentResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "program %s (ops %s):\n", p.Label, strings.Join(p.Ops, ","))
	for _, r := range rs {
		fmt.Fprintf(&b, "  [%s] ", r.Name())
		if r.Err != nil {
			fmt.Fprintf(&b, "faulted: %v\n", r.Err)
		} else {
			fmt.Fprintf(&b, "output diverged:\n    got:  %q\n    want: %q\n", r.Output, p.Want)
		}
	}
	b.WriteString("source:\n")
	b.WriteString(p.Source)
	return b.String()
}
