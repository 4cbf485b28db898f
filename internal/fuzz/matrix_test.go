package fuzz

import (
	"context"
	"testing"

	"gcsafety/internal/artifact"
	"gcsafety/internal/faultinject"
	"gcsafety/internal/machine"
	"gcsafety/internal/pipeline"
)

func TestTreatmentsCrossProduct(t *testing.T) {
	ts := Treatments(MatrixOptions{})
	// 3 machines x 3 annotations x 2 opt x 2 post benign cells, plus
	// 3 adversarial runs per machine and 2 on the first machine; the
	// elision axis adds 4 benign and 2 adversarial twins on the first
	// machine; the temporal mode adds an optimized cell per machine and a
	// debug cell on the first; the concurrent-mutator mode adds 5 benign
	// multi-thread cells and 3 adversarial cells (temporal, safe-mt,
	// none-mt).
	want := 3*3*2*2 + 3*3 + 2 + (4 + 2) + (3 + 1) + 5 + 3
	if len(ts) != want {
		t.Fatalf("Treatments() = %d cells, want %d", len(ts), want)
	}
	seen := map[string]bool{}
	for _, tr := range ts {
		name := tr.Name()
		if seen[name] {
			t.Fatalf("duplicate treatment %q", name)
		}
		seen[name] = true
		if !tr.Annotated() && tr.Optimize && tr.MustAgree() {
			t.Fatalf("unannotated optimized treatment %q marked must-agree", name)
		}
		if (tr.Annotated() || !tr.Optimize) && !tr.MustAgree() {
			t.Fatalf("treatment %q should be must-agree", name)
		}
	}
}

func TestTreatmentsSingleMachine(t *testing.T) {
	ts := Treatments(MatrixOptions{Machines: []machine.Config{machine.SPARCstation10()}})
	if want := 3*2*2 + 3 + 2 + (4 + 2) + (1 + 1) + 5 + 3; len(ts) != want {
		t.Fatalf("single-machine Treatments() = %d cells, want %d", len(ts), want)
	}
	benign := Treatments(MatrixOptions{SkipAdversarial: true})
	for _, tr := range benign {
		if tr.Adversarial {
			t.Fatalf("SkipAdversarial left %q in the list", tr.Name())
		}
	}
}

// runMatrixSeeds runs [start, start+n) seeds through the full treatment
// matrix and fails on any violation of a must-agree treatment.
func runMatrixSeeds(t *testing.T, start, n int64, steps int) {
	t.Helper()
	unsafeFailures := 0
	for seed := start; seed < start+n; seed++ {
		p := Generate(seed, steps)
		m, err := RunMatrix(p, MatrixOptions{})
		if err != nil {
			t.Fatalf("harness failure: %v\n%s", err, p.Source)
		}
		if len(m.Violations) > 0 {
			t.Fatalf("matrix violation:\n%s", Describe(p, m.Violations))
		}
		unsafeFailures += len(m.UnsafeFailures)
	}
	t.Logf("%d seeds clean; %d tolerated unsafe-build failures", n, unsafeFailures)
}

// The headline differential property: generated programs agree with the
// model under every must-agree treatment, benign and adversarial. The full
// 2000-program acceptance run is split across subtests so progress and
// failures are attributable; -short runs a 100-program slice.
func TestMatrixAgreesOnGeneratedPrograms(t *testing.T) {
	if testing.Short() {
		runMatrixSeeds(t, 0, 100, 5)
		return
	}
	const (
		batches = 8
		perB    = 250 // 8 * 250 = 2000 programs
	)
	for b := int64(0); b < batches; b++ {
		b := b
		t.Run("batch", func(t *testing.T) {
			runMatrixSeeds(t, b*perB, perB, 5)
		})
	}
}

// The paper's phenomenon itself: within 500 generated programs the
// unannotated optimized build, run under the adversarial collection
// schedule, must access a prematurely reclaimed object.
func TestUnannotatedOptimizedReproducesReclamation(t *testing.T) {
	machines := machine.Configs()
	for seed := int64(0); seed < 500; seed++ {
		p := Generate(seed, 5)
		if p.Hazards == 0 {
			continue
		}
		for _, cfg := range machines {
			tr := cell(cfg.ShortName(), "", true, false).adversarial()
			r, err := RunTreatment(p, tr)
			if err != nil {
				t.Fatalf("harness failure: %v", err)
			}
			if IsReclamationFault(r.Err) {
				t.Logf("premature reclamation reproduced at seed %d on %s: %v",
					seed, tr.Name(), r.Err)
				return
			}
		}
	}
	t.Fatalf("no premature reclamation in 500 generated programs — the hazard catalogue has gone stale")
}

// Conversely, the annotated build must also survive the benign schedule on
// a program known to trip the unsafe build (regression guard for the
// annotator rather than the schedule).
func TestSafeSurvivesWhereUnsafeFaults(t *testing.T) {
	p, bad := findKnownBad(t, 200)
	safe := bad.Treatment
	safe.Annotate = "safe"
	r, err := RunTreatment(p, safe)
	if err != nil {
		t.Fatalf("harness failure: %v", err)
	}
	if !r.Agreed(p.Want) {
		t.Fatalf("annotated build failed on the known-bad program: err=%v got=%q want=%q",
			r.Err, r.Output, p.Want)
	}
}

// findKnownBad scans seeds for a program whose unannotated optimized
// adversarial run faults with a premature-reclamation error.
func findKnownBad(t *testing.T, maxSeeds int64) (*Program, TreatmentResult) {
	t.Helper()
	for seed := int64(0); seed < maxSeeds; seed++ {
		p := Generate(seed, 5)
		if p.Hazards == 0 {
			continue
		}
		for _, cfg := range machine.Configs() {
			tr := cell(cfg.ShortName(), "", true, false).adversarial()
			r, err := RunTreatment(p, tr)
			if err != nil {
				t.Fatalf("harness failure: %v", err)
			}
			if IsReclamationFault(r.Err) {
				return p, r
			}
		}
	}
	t.Fatalf("no known-bad program found in %d seeds", maxSeeds)
	return nil, TreatmentResult{}
}

// TestResultKeyIsOptionsKey: every matrix treatment builds to the key its
// build options derive without building, and treatments sharing a key,
// built on separate runners, compile to the same program.
func TestResultKeyIsOptionsKey(t *testing.T) {
	p := Generate(3, 6)
	listings := map[artifact.Key]string{}
	for _, tr := range Treatments(MatrixOptions{}) {
		o, err := tr.BuildOptions()
		if err != nil {
			t.Fatal(err)
		}
		b, err := pipeline.NewRunner(artifact.New(0)).Build(context.Background(), "fuzz.c", p.Source, o)
		if err != nil {
			t.Fatal(err)
		}
		if b.Key != o.Key("fuzz.c", p.Source) {
			t.Errorf("%s: Result.Key differs from Options.Key", tr.Name())
		}
		if l, ok := listings[b.Key]; ok && l != b.Prog.Listing() {
			t.Errorf("%s: shares a key with a treatment that compiles differently", tr.Name())
		}
		listings[b.Key] = b.Prog.Listing()
	}
}

// TestMatrixSharesRuns: the matrix's treatments run on one pipeline, so
// treatments that differ only in cost model (the SPARCstation 2 and 10
// twins) share one run: 65 treatments make 49 runs, and the 49 without
// the adversarial schedules make 36. Runs with faults armed are never
// cached, so a clean pass after a faulted one on the same pipeline
// reuses none of them.
func TestMatrixSharesRuns(t *testing.T) {
	p := Generate(1, 8)
	faults, err := faultinject.Parse("gc.alloc=error,after=2,msg=injected-oom", 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		opt        MatrixOptions
		treatments int
		runs       uint64
	}{{MatrixOptions{}, 65, 49}, {MatrixOptions{SkipAdversarial: true}, 49, 36}} {
		ts := Treatments(c.opt)
		if len(ts) != c.treatments {
			t.Fatalf("%d treatments, want %d", len(ts), c.treatments)
		}
		runner := pipeline.NewRunner(artifact.New(0))
		pass := func(faults *faultinject.Set) uint64 {
			before := runner.StageStats(pipeline.StageExecute).Misses
			for _, tr := range ts {
				if _, err := runTreatment(context.Background(), runner, p, tr, 0, faults); err != nil {
					t.Fatal(err)
				}
			}
			return runner.StageStats(pipeline.StageExecute).Misses - before
		}
		if n := pass(faults); n != uint64(len(ts)) {
			t.Errorf("faulted pass ran %d of %d treatments", n, len(ts))
		}
		if n := pass(nil); n != c.runs {
			t.Errorf("skip_adversarial=%v: %d runs computed, want %d", c.opt.SkipAdversarial, n, c.runs)
		}
		if n := pass(nil); n != 0 {
			t.Errorf("skip_adversarial=%v: a warm pass computed %d runs", c.opt.SkipAdversarial, n)
		}
	}
}
