package fuzz

import (
	"testing"

	"gcsafety/internal/faultinject"
)

// TestMatrixParallelDeterministic pins RunMatrix's width-independence: the
// classified result of a matrix run — result order, outputs, fault texts,
// violation and unsafe-failure partitions — is identical whether
// treatments run inline or eight wide. Run under -race (make race) this
// also exercises the fan-out for data races.
func TestMatrixParallelDeterministic(t *testing.T) {
	for _, seed := range []int64{1, 7, 1991} {
		p := Generate(seed, 8)
		seq, err := RunMatrix(p, MatrixOptions{Parallel: 1})
		if err != nil {
			t.Fatalf("seed %d sequential: %v", seed, err)
		}
		par, err := RunMatrix(p, MatrixOptions{Parallel: 8})
		if err != nil {
			t.Fatalf("seed %d parallel: %v", seed, err)
		}
		compareResults(t, seed, "Results", seq.Results, par.Results)
		compareResults(t, seed, "Violations", seq.Violations, par.Violations)
		compareResults(t, seed, "UnsafeFailures", seq.UnsafeFailures, par.UnsafeFailures)
		compareResults(t, seed, "TemporalDetections", seq.TemporalDetections, par.TemporalDetections)
	}
}

// TestMatrixParallelDeterministicConcurrent pins the same width-independence
// on a program that exercises both new checker columns at once: the matrix
// of a program seeding temporal hazards AND a worker-thread escape must be
// byte-identical inline and eight wide — concurrent-mutator interleaving is
// a function of (program, seed) only, never of host scheduling.
func TestMatrixParallelDeterministicConcurrent(t *testing.T) {
	var seed int64 = -1
	for s := int64(0); s < 500; s++ {
		p := Generate(s, 8)
		if p.TemporalHazards > 0 && p.RaceHazards > 0 {
			seed = s
			break
		}
	}
	if seed < 0 {
		t.Fatalf("no program with both temporal and race hazards in 500 seeds")
	}
	p := Generate(seed, 8)
	seq, err := RunMatrix(p, MatrixOptions{Parallel: 1})
	if err != nil {
		t.Fatalf("seed %d sequential: %v", seed, err)
	}
	par, err := RunMatrix(p, MatrixOptions{Parallel: 8})
	if err != nil {
		t.Fatalf("seed %d parallel: %v", seed, err)
	}
	compareResults(t, seed, "Results", seq.Results, par.Results)
	compareResults(t, seed, "Violations", seq.Violations, par.Violations)
	compareResults(t, seed, "UnsafeFailures", seq.UnsafeFailures, par.UnsafeFailures)
	compareResults(t, seed, "TemporalDetections", seq.TemporalDetections, par.TemporalDetections)
	if len(seq.TemporalDetections) == 0 {
		t.Fatalf("seed %d: no temporal detections despite %d seeded hazards", seed, p.TemporalHazards)
	}
}

// TestFaultedMatrixWidthIndependent pins width-independence for a matrix
// with faults armed: every treatment fires the one fault set, so an
// after=N rule must hit the same treatment's allocation at any width. Each
// run gets a freshly parsed set, as a campaign's program does.
func TestFaultedMatrixWidthIndependent(t *testing.T) {
	const seed = 3
	p := Generate(seed, 8)
	run := func(width int) *MatrixResult {
		faults, err := faultinject.Parse("gc.alloc=error,after=3,msg=oom", 9)
		if err != nil {
			t.Fatal(err)
		}
		m, err := RunMatrix(p, MatrixOptions{Parallel: width, Faults: faults})
		if err != nil {
			t.Fatalf("width %d: %v", width, err)
		}
		return m
	}
	seq := run(1)
	if len(seq.Violations) == 0 {
		t.Fatal("the fault set hit no must-agree treatment; the test exercises nothing")
	}
	for i := 0; i < 10; i++ {
		par := run(8)
		compareResults(t, seed, "Results", seq.Results, par.Results)
		compareResults(t, seed, "Violations", seq.Violations, par.Violations)
		compareResults(t, seed, "UnsafeFailures", seq.UnsafeFailures, par.UnsafeFailures)
	}
}

func compareResults(t *testing.T, seed int64, what string, a, b []TreatmentResult) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("seed %d: %s length %d sequential vs %d parallel", seed, what, len(a), len(b))
	}
	errText := func(err error) string {
		if err == nil {
			return ""
		}
		return err.Error()
	}
	for i := range a {
		if a[i].Name() != b[i].Name() || a[i].Output != b[i].Output || errText(a[i].Err) != errText(b[i].Err) {
			t.Fatalf("seed %d: %s[%d] diverges:\nsequential: %s %q %q\nparallel:   %s %q %q",
				seed, what, i,
				a[i].Name(), a[i].Output, errText(a[i].Err),
				b[i].Name(), b[i].Output, errText(b[i].Err))
		}
	}
}
