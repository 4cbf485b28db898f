package fuzz

import (
	"testing"

	"gcsafety/internal/machine"
)

// temporalTreatmentCount is the number of temporal-mode cells a
// single-machine matrix contains: the optimized and debuggable builds, the
// concurrent build, and the adversarial-schedule build.
const temporalTreatmentCount = 4

// The headline temporal property, deterministically: for a generated
// program that seeds a use-after-free or double-free, every temporal-mode
// treatment must report a TemporalError — the classifier files each one
// under TemporalDetections and treats anything else (a silent pass
// included) as a violation.
func TestTemporalDetectsSeededUAF(t *testing.T) {
	found := 0
	for seed := int64(0); seed < 300 && found < 3; seed++ {
		p := Generate(seed, 8)
		if p.TemporalHazards == 0 {
			continue
		}
		found++
		m, err := RunMatrix(p, MatrixOptions{
			Machines: []machine.Config{machine.SPARCstation10()},
		})
		if err != nil {
			t.Fatalf("seed %d: harness failure: %v\n%s", seed, err, p.Source)
		}
		if len(m.Violations) > 0 {
			t.Fatalf("seed %d: matrix violation:\n%s", seed, Describe(p, m.Violations))
		}
		if len(m.TemporalDetections) != temporalTreatmentCount {
			t.Fatalf("seed %d: %d temporal detections, want %d\n%s",
				seed, len(m.TemporalDetections), temporalTreatmentCount, p.Source)
		}
		for _, r := range m.TemporalDetections {
			if !IsTemporalFault(r.Err) {
				t.Fatalf("seed %d [%s]: detection is not a TemporalError: %v",
					seed, r.Name(), r.Err)
			}
		}
	}
	if found == 0 {
		t.Fatalf("no program with temporal hazards in 300 seeds — the generator has gone stale")
	}
}

// The false-positive guard: a program that frees only after the last use
// (and seeds no temporal hazard) must sail through temporal mode with the
// model's exact output.
func TestTemporalNoFalsePositiveOnBenignFree(t *testing.T) {
	checked := 0
	for seed := int64(0); seed < 300 && checked < 3; seed++ {
		p := Generate(seed, 8)
		if p.TemporalHazards > 0 || p.RaceHazards > 0 {
			continue
		}
		hasFree := false
		for _, op := range p.Ops {
			if op == "free" {
				hasFree = true
			}
		}
		if !hasFree {
			continue
		}
		checked++
		for _, optimize := range []bool{false, true} {
			tr := cell("ss10", "temporal", optimize, false)
			r, err := RunTreatment(p, tr)
			if err != nil {
				t.Fatalf("seed %d: harness failure: %v", seed, err)
			}
			if !r.Agreed(p.Want) {
				t.Fatalf("seed %d [%s]: temporal false positive: err=%v got=%q want=%q\n%s",
					seed, tr.Name(), r.Err, r.Output, p.Want, p.Source)
			}
		}
	}
	if checked == 0 {
		t.Fatalf("no benign-free program in 300 seeds")
	}
}

// The cross-thread-escape phenomenon: within the seed budget there must be
// a generated program whose worker thread holds a displaced pointer across
// another thread's collection point — the unannotated optimized concurrent
// build faults with the premature-reclamation detector, while the safe
// build of the same program under the same schedule agrees with the model.
func TestConcurrentDetectsThreadEscape(t *testing.T) {
	for seed := int64(0); seed < 500; seed++ {
		p := Generate(seed, 8)
		if p.RaceHazards == 0 {
			continue
		}
		unsafe := cell("ss10", "", true, false).concurrent().adversarial()
		r, err := RunTreatment(p, unsafe)
		if err != nil {
			t.Fatalf("seed %d: harness failure: %v", seed, err)
		}
		if !IsReclamationFault(r.Err) {
			continue
		}
		safe := unsafe
		safe.Annotate = "safe"
		rs, err := RunTreatment(p, safe)
		if err != nil {
			t.Fatalf("seed %d: harness failure: %v", seed, err)
		}
		if !rs.Agreed(p.Want) {
			t.Fatalf("seed %d: safe concurrent build failed where only the unsafe one should: err=%v got=%q want=%q\n%s",
				seed, rs.Err, rs.Output, p.Want, p.Source)
		}
		t.Logf("cross-thread escape reproduced at seed %d: %v", seed, r.Err)
		return
	}
	t.Fatalf("no cross-thread escape detected in 500 seeds — the worker hazard has gone stale")
}

// temporalFuzzTreatments is the narrow column set FuzzTemporalDifferential
// exercises per input: the temporal builds (optimized, debuggable,
// adversarial, concurrent), the safe concurrent build as the agreement
// baseline, and the unsafe concurrent adversarial build as the tolerated
// hazard demonstration.
func temporalFuzzTreatments() []Treatment {
	return []Treatment{
		cell("ss10", "temporal", true, false),
		cell("ss10", "temporal", false, false),
		cell("ss10", "temporal", true, false).adversarial(),
		cell("ss10", "temporal", true, false).concurrent(),
		cell("ss10", "safe", true, false).concurrent(),
		cell("ss10", "", true, false).concurrent().adversarial(),
	}
}

// FuzzTemporalDifferential is the native fuzzing entry point for the two
// new checker columns: the fuzzer mutates the generator's byte string, and
// every resulting program must satisfy the temporal contract — temporal
// treatments fault with a TemporalError exactly when the program seeds a
// use-after-free/double-free, and agree with the model exactly when it does
// not — while the safe concurrent treatment always agrees and the unsafe
// concurrent treatment is free to fail (the demonstrated hazard). Run with:
//
//	go test -fuzz=FuzzTemporalDifferential -fuzztime=30s ./internal/fuzz
func FuzzTemporalDifferential(f *testing.F) {
	// Op-table bytes (mod 27): 23 = uaf, 24 = double-free, 25 = benign
	// free, 26 = thread-escape; the leading byte picks the step count.
	f.Add([]byte{})
	f.Add([]byte{0, 23, 10, 200, 23, 60, 7})                   // two use-after-frees
	f.Add([]byte{0, 24, 5, 24, 200, 24, 17})                   // three double-frees
	f.Add([]byte{0, 25, 12, 3, 25, 30, 1})                     // benign frees only
	f.Add([]byte{0, 26, 50, 100, 20, 9, 80})                   // one worker escape
	f.Add([]byte{2, 23, 9, 9, 24, 40, 26, 10, 10, 10, 10, 10}) // uaf + dfree + escape
	f.Add([]byte{1, 0, 30, 25, 8, 2, 23, 90, 90})              // reuse after benign free
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 64 {
			data = data[:64]
		}
		p := GenerateBytes(data)
		for _, tr := range temporalFuzzTreatments() {
			r, err := RunTreatmentContext(t.Context(), p, tr, 2_000_000)
			if err != nil {
				t.Fatalf("harness failure [%s]: %v\n%s", tr.Name(), err, p.Source)
			}
			switch {
			case tr.Temporal && p.TemporalHazards > 0:
				if !IsTemporalFault(r.Err) {
					t.Fatalf("missed temporal detection [%s]: err=%v got=%q\n%s",
						tr.Name(), r.Err, r.Output, p.Source)
				}
			case tr.MustAgree():
				if !r.Agreed(p.Want) {
					t.Fatalf("violation [%s]: err=%v got=%q want=%q\n%s",
						tr.Name(), r.Err, r.Output, p.Want, p.Source)
				}
			}
		}
	})
}
