package gcsafety

import (
	"errors"
	"fmt"
	"testing"

	"gcsafety/internal/artifact"
	"gcsafety/internal/fuzz"
	"gcsafety/internal/gcsafe"
	"gcsafety/internal/interp"
	"gcsafety/internal/machine"
	"gcsafety/internal/pipeline"
	"gcsafety/internal/workloads"
)

// TestElisionGoldenCounts pins the liveness analysis's per-workload
// elision counts. The numbers are goldens: an intentional analysis change
// updates them, an accidental one (a liveness bug, an eligibility
// regression) trips here first. They also prove the acceptance bar —
// every Zorn workload elides more than zero annotations in both modes.
func TestElisionGoldenCounts(t *testing.T) {
	type counts struct {
		inserted, considered, elided, live, bounds int
	}
	golden := map[string]counts{
		"cordtest/safe":    {inserted: 30, considered: 64, elided: 46, live: 46},
		"cordtest/checked": {inserted: 60, considered: 64, elided: 16, bounds: 16},
		"cfrac/safe":       {inserted: 35, considered: 65, elided: 35, live: 35},
		"cfrac/checked":    {inserted: 66, considered: 65, elided: 4, bounds: 4},
		"gawk/safe":        {inserted: 11, considered: 20, elided: 9, live: 9},
		"gawk/checked":     {inserted: 15, considered: 20, elided: 5, bounds: 5},
		"gs/safe":          {inserted: 32, considered: 78, elided: 56, live: 56},
		"gs/checked":       {inserted: 83, considered: 78, elided: 5, bounds: 5},
		"uaf/safe":         {inserted: 3, considered: 6, elided: 3, live: 3},
		"uaf/checked":      {inserted: 3, considered: 6, elided: 3, bounds: 3},
		"dblfree/safe":     {inserted: 2, considered: 6, elided: 4, live: 4},
		"dblfree/checked":  {inserted: 2, considered: 6, elided: 4, bounds: 4},
		"escape/safe":      {inserted: 2, considered: 4, elided: 2, live: 2},
		"escape/checked":   {inserted: 3, considered: 4, elided: 1, bounds: 1},
	}
	for _, w := range append(workloads.All(), workloads.Hazards()...) {
		for _, m := range []struct {
			name string
			opts AnnotateOptions
		}{
			{"safe", SafeElided()},
			{"checked", CheckedElided()},
		} {
			key := w.Name + "/" + m.name
			res, err := Annotate(w.Name+".c", w.Source, m.opts)
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			got := counts{
				inserted:   res.Inserted,
				considered: res.Considered,
				elided:     res.Elided,
				live:       res.ElidedLive,
				bounds:     res.ElidedBounds,
			}
			want, ok := golden[key]
			if !ok {
				t.Errorf("%s: no golden entry; got %+v", key, got)
				continue
			}
			if got != want {
				t.Errorf("%s: counts %+v, want %+v", key, got, want)
			}
			if got.elided == 0 {
				t.Errorf("%s: elision never fired", key)
			}
			if got.elided != got.live+got.bounds {
				t.Errorf("%s: elided %d != live %d + bounds %d", key, got.elided, got.live, got.bounds)
			}
		}
	}
}

// elideRun executes one workload under one treatment and flattens the
// outcome (output plus error string) for identity comparison.
func elideRun(t *testing.T, w workloads.Workload, opts AnnotateOptions, optimize, post bool, ex interp.Options) (string, string) {
	t.Helper()
	ex.Input = w.Input
	res, err := Run(w.Name+".c", w.Source, Pipeline{
		Annotate: true, AnnotateOptions: opts, Optimize: optimize, Postprocess: post, Exec: ex,
	})
	out := ""
	if res != nil && res.Exec != nil {
		out = res.Exec.Output
	}
	if err != nil {
		return out, err.Error()
	}
	return out, ""
}

// TestElisionOutputIdentity runs every workload under each elided
// treatment and its unelided twin on the benign-but-nontrivial schedule
// (async collections plus the premature-reclamation detector) and
// requires bit-identical output and identical faults. gawk's checked
// builds both fail the pointer-arithmetic check — with the same message —
// which is the detection-preservation half of the contract.
func TestElisionOutputIdentity(t *testing.T) {
	ex := interp.Options{GCEveryInstrs: 211, TriggerBytes: 8 << 10, Validate: true}
	for _, w := range append(workloads.All(), workloads.Hazards()...) {
		for _, tc := range []struct {
			name           string
			plain, elided  AnnotateOptions
			optimize, post bool
		}{
			{"safe-O", Safe(), SafeElided(), true, false},
			{"safe-O-post", Safe(), SafeElided(), true, true},
			{"checked-g", Checked(), CheckedElided(), false, false},
			{"checked-O", Checked(), CheckedElided(), true, false},
		} {
			po, pe := elideRun(t, w, tc.plain, tc.optimize, tc.post, ex)
			eo, ee := elideRun(t, w, tc.elided, tc.optimize, tc.post, ex)
			if po != eo || pe != ee {
				t.Errorf("%s %s: plain out=%q err=%q; elided out=%q err=%q",
					w.Name, tc.name, po, pe, eo, ee)
			}
		}
	}
}

// TestElisionAdversarialIdentity repeats the identity check under the
// hostile schedule — a collection between every two instructions and at
// every allocation — on the hazard workloads (small enough to afford it).
// Elided safe code must survive the adversary exactly like unelided safe
// code: a divergence here is a KEEP_LIVE that was load-bearing.
func TestElisionAdversarialIdentity(t *testing.T) {
	ex := interp.Options{GCEveryInstrs: 1, CollectAtEveryAlloc: true, Validate: true}
	for _, w := range workloads.Hazards() {
		for _, tc := range []struct {
			name           string
			plain, elided  AnnotateOptions
			optimize, post bool
		}{
			{"safe-O", Safe(), SafeElided(), true, false},
			{"safe-O-post", Safe(), SafeElided(), true, true},
			{"checked-g", Checked(), CheckedElided(), false, false},
		} {
			po, pe := elideRun(t, w, tc.plain, tc.optimize, tc.post, ex)
			eo, ee := elideRun(t, w, tc.elided, tc.optimize, tc.post, ex)
			if po != eo || pe != ee {
				t.Errorf("%s %s: plain out=%q err=%q; elided out=%q err=%q",
					w.Name, tc.name, po, pe, eo, ee)
			}
		}
	}
}

// TestElisionKeepsDetections is the hazard-preservation suite: every
// detection the checkers make without elision must still be made with it.
func TestElisionKeepsDetections(t *testing.T) {
	// gawk's intentional out-of-object pointer arithmetic: the checked
	// build reports it, so checked-elided must too (the violating access
	// is by construction not provably in-bounds).
	for _, w := range workloads.All() {
		if !w.CheckedFails {
			continue
		}
		_, err := Run(w.Name+".c", w.Source, Pipeline{
			Annotate: true, AnnotateOptions: CheckedElided(),
			Exec: interp.Options{Input: w.Input},
		})
		var ce *interp.CheckError
		if !errors.As(err, &ce) {
			t.Errorf("%s checked-elided: want a pointer check failure, got %v", w.Name, err)
		}
	}
	// The temporal hazard catalogue: annotate in temporal mode with Elide
	// requested. Temporal mode never elides (an elided GC_free would lose
	// the detection), so every workload the checker catches unelided it
	// must catch here too.
	temporalElided := Temporal()
	temporalElided.Elide = true
	for _, w := range workloads.Hazards() {
		plain, perr := Run(w.Name+".c", w.Source, Pipeline{
			Annotate: true, AnnotateOptions: Temporal(), Optimize: true,
			Exec: interp.Options{Input: w.Input, Temporal: true},
		})
		_ = plain
		var te *interp.TemporalError
		if !errors.As(perr, &te) {
			continue // not detected without elision either (e.g. escape needs mt)
		}
		_, eerr := Run(w.Name+".c", w.Source, Pipeline{
			Annotate: true, AnnotateOptions: temporalElided, Optimize: true,
			Exec: interp.Options{Input: w.Input, Temporal: true},
		})
		if !errors.As(eerr, &te) {
			t.Errorf("%s temporal+elide: detection lost (plain %v, elided %v)", w.Name, perr, eerr)
		}
	}
	// The fuzz hazard corpus: generated programs seeding use-after-free /
	// double-free. The temporal treatment must detect them with Elide on,
	// exactly as the differential matrix requires without it.
	found := 0
	for seed := int64(1); seed <= 60 && found < 3; seed++ {
		p := GenerateProgram(seed, 12)
		if p.TemporalHazards == 0 {
			continue
		}
		found++
		for _, elide := range []bool{false, true} {
			var tr fuzz.Treatment
			tr.Machine, tr.Annotate, tr.Optimize, tr.Elide, tr.Temporal = "ss10", "temporal", true, elide, true
			r, err := fuzz.RunTreatment(p, tr)
			if err != nil {
				t.Fatalf("seed %d elide=%v: %v", seed, elide, err)
			}
			if !fuzz.IsTemporalFault(r.Err) {
				t.Errorf("seed %d elide=%v: temporal hazard not detected (%v)", seed, elide, r.Err)
			}
		}
	}
	if found == 0 {
		t.Fatal("no temporal-hazard seeds in 1..60; corpus assumption broken")
	}
}

// TestElisionSmokeWarmBuild is the elision half of the stage-graph gate:
// with Elide on, the walk gains the Liveness stage, and a warm rebuild
// must still be served entirely from the per-stage cache — 7 stages, 7
// hits — with the elision counts riding along on the report.
func TestElisionSmokeWarmBuild(t *testing.T) {
	runner := pipeline.NewRunner(artifact.New(0))
	w, ok := workloads.ByName("cordtest")
	if !ok {
		t.Fatal("cordtest workload missing")
	}
	opts := pipeline.Options{
		Annotate:        true,
		AnnotateOptions: gcsafe.Options{Elide: true},
		Optimize:        true,
		Machine:         machine.SPARCstation10(),
	}
	cold, err := runner.Build(t.Context(), w.Name+".c", w.Source, opts)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Report.AllHits() {
		t.Fatal("cold build reported all cache hits")
	}
	warm, err := runner.Build(t.Context(), w.Name+".c", w.Source, opts)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(warm.Report.Stages); n != 7 {
		t.Fatalf("elided build walked %d stages, want 7 (incl. liveness)", n)
	}
	if !warm.Report.AllHits() {
		t.Fatalf("warm elided rebuild not fully cached: %+v", warm.Report.Stages)
	}
	for _, rep := range []*pipeline.BuildReport{cold.Report, warm.Report} {
		if rep.Elision == nil || rep.Elision.Elided == 0 {
			t.Fatalf("build report missing elision counts: %+v", rep.Elision)
		}
	}
	es := runner.ElisionStats()
	if es.Elided == 0 || es.Considered != es.Elided+es.Kept {
		t.Fatalf("runner elision stats inconsistent: %+v", es)
	}
}

// TestElisionSmokeDifferential runs a few generated programs through the
// full treatment matrix — which now carries the elided twins — and
// requires (a) zero violations and (b) that every elided cell classified
// exactly like its unelided twin.
func TestElisionSmokeDifferential(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		p := GenerateProgram(seed, 10)
		m, err := RunMatrix(p, MatrixOptions{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(m.Violations) > 0 {
			t.Fatalf("seed %d: %s", seed, fuzz.Describe(p, m.Violations))
		}
		for _, r := range m.Results {
			if !r.Elide {
				continue
			}
			twin := r.Treatment
			twin.Elide = false
			seen := false
			for _, q := range m.Results {
				if q.Treatment != twin {
					continue
				}
				seen = true
				if q.Output != r.Output || fmt.Sprint(q.Err) != fmt.Sprint(r.Err) {
					t.Errorf("seed %d %s vs %s: out=%q err=%v / out=%q err=%v",
						seed, r.Name(), q.Name(), r.Output, r.Err, q.Output, q.Err)
				}
			}
			if !seen {
				t.Errorf("seed %d: elided cell %s has no unelided twin in the matrix", seed, r.Name())
			}
		}
	}
}
