package pipeline

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"gcsafety/internal/artifact"
	"gcsafety/internal/cc/parser"
	"gcsafety/internal/codegen"
	"gcsafety/internal/faultinject"
	"gcsafety/internal/gcsafe"
	"gcsafety/internal/interp"
	"gcsafety/internal/machine"
	"gcsafety/internal/peephole"
	"gcsafety/internal/workloads"
)

// treatments is the canonical cell set of the paper's tables, spelled as
// pipeline options.
func treatments() map[string]Options {
	return map[string]Options{
		"-O":           {Optimize: true},
		"-O, safe":     {Optimize: true, Annotate: true},
		"-g":           {},
		"-g, checked":  {Annotate: true, AnnotateOptions: gcsafe.Options{Mode: gcsafe.ModeChecked}},
		"-O, safe+pp":  {Optimize: true, Annotate: true, Post: true},
		"-g, safe+pp":  {Annotate: true, Post: true},
		"-O, opt1-off": {Optimize: true, Annotate: true, AnnotateOptions: gcsafe.Options{NoCopySuppression: true}},
	}
}

// directBuild is the pre-pipeline monolithic build path, inlined here as
// the behavioral oracle: the stage graph must be byte-identical to it.
func directBuild(t *testing.T, name, src string, o Options) (*machine.Program, *gcsafe.Result, *peephole.Stats) {
	t.Helper()
	file, err := parser.Parse(name, src)
	if err != nil {
		t.Fatalf("direct parse: %v", err)
	}
	var ares *gcsafe.Result
	if o.Annotate {
		ares, err = gcsafe.Annotate(file, o.AnnotateOptions)
		if err != nil {
			t.Fatalf("direct annotate: %v", err)
		}
	}
	prog, err := codegen.Compile(file, codegen.Options{Optimize: o.Optimize, Machine: o.Machine})
	if err != nil {
		t.Fatalf("direct compile: %v", err)
	}
	var pst *peephole.Stats
	if o.Post {
		st := peephole.Optimize(prog, o.Machine)
		pst = &st
	}
	return prog, ares, pst
}

// TestPipelineMatchesDirectBuild pins the refactor's central contract:
// for every workload and treatment, the staged build produces exactly the
// listing, annotation output and peephole stats of the old monolithic
// path.
func TestPipelineMatchesDirectBuild(t *testing.T) {
	ws := workloads.All()
	if testing.Short() {
		ws = ws[:2]
	}
	for _, cfg := range machine.Configs() {
		for tname, o := range treatments() {
			o.Machine = cfg
			r := NewRunner(artifact.New(0))
			for _, w := range ws {
				res, err := r.Build(context.Background(), w.Name+".c", w.Source, o)
				if err != nil {
					t.Fatalf("%s [%s/%s]: %v", w.Name, cfg.Name, tname, err)
				}
				prog, ares, pst := directBuild(t, w.Name+".c", w.Source, o)
				if got, want := res.Prog.Listing(), prog.Listing(); got != want {
					t.Errorf("%s [%s/%s]: listing diverges from direct build", w.Name, cfg.Name, tname)
				}
				if o.Annotate {
					if res.Annotate == nil {
						t.Fatalf("%s: no annotate result", w.Name)
					}
					if res.Annotate.Output != ares.Output {
						t.Errorf("%s [%s/%s]: annotated source diverges", w.Name, cfg.Name, tname)
					}
					if res.Annotate.Inserted != ares.Inserted || res.Annotate.Suppressed != ares.Suppressed {
						t.Errorf("%s [%s/%s]: annotate counters diverge", w.Name, cfg.Name, tname)
					}
				} else if res.Annotate != nil {
					t.Errorf("%s: unexpected annotate result", w.Name)
				}
				if o.Post {
					if res.Peephole == nil || *res.Peephole != *pst {
						t.Errorf("%s [%s/%s]: peephole stats diverge: %+v vs %+v", w.Name, cfg.Name, tname, res.Peephole, pst)
					}
				}
			}
		}
		if testing.Short() {
			break
		}
	}
}

// TestFrontEndSharedAcrossTreatments is the cache-sharing contract: one
// workload built under every treatment and machine lexes, parses and
// typechecks exactly once.
func TestFrontEndSharedAcrossTreatments(t *testing.T) {
	r := NewRunner(artifact.New(0))
	w := workloads.All()[0]
	n := 0
	for _, cfg := range machine.Configs() {
		for _, o := range treatments() {
			o.Machine = cfg
			if _, err := r.Build(context.Background(), w.Name+".c", w.Source, o); err != nil {
				t.Fatal(err)
			}
			n++
		}
	}
	for _, st := range []Stage{StageLex, StageParse, StageTypecheck} {
		s := r.StageStats(st)
		if s.Misses != 1 {
			t.Errorf("%s: %d misses over %d builds, want 1", st, s.Misses, n)
		}
		if s.Calls != uint64(n) {
			t.Errorf("%s: %d calls, want %d", st, s.Calls, n)
		}
	}
	// Safe and checked treatments annotate differently; opt1-off is a third
	// configuration. Three annotate misses, not one per build.
	if s := r.StageStats(StageAnnotate); s.Misses != 3 {
		t.Errorf("annotate: %d misses, want 3", s.Misses)
	}
}

// TestCodegenKeyedOnCodeShapingFields pins what the machine contributes
// to the Codegen key: the SPARCstation 2 and 10, which differ only in
// cycle costs, miss Codegen, Optimize and Peephole once between them and
// share one program and final key; the Pentium 90 misses on its own; and
// a config that differs from the SPARCstation 10 in any one code-shaping
// field does not share.
func TestCodegenKeyedOnCodeShapingFields(t *testing.T) {
	r := NewRunner(artifact.New(0))
	w := workloads.All()[0]
	build := func(cfg machine.Config) *Result {
		t.Helper()
		res, err := r.Build(context.Background(), w.Name+".c", w.Source, Options{Optimize: true, Post: true, Machine: cfg})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	misses := func(want uint64) {
		t.Helper()
		for _, st := range []Stage{StageCodegen, StageOptimize, StagePeephole} {
			if got := r.StageStats(st).Misses; got != want {
				t.Errorf("%s: %d misses, want %d", st, got, want)
			}
		}
	}
	ss2 := build(machine.SPARCstation2())
	ss10 := build(machine.SPARCstation10())
	misses(1)
	if ss2.Key != ss10.Key || ss2.Prog != ss10.Prog {
		t.Error("the SPARCstation 2 and 10 builds do not share one program")
	}
	if p90 := build(machine.Pentium90()); p90.Key == ss10.Key {
		t.Error("the Pentium 90 build shares the SPARCstation key")
	}
	misses(2)
	for i, v := range []struct {
		field string
		set   func(*machine.Config)
	}{
		{"NumRegs", func(c *machine.Config) { c.NumRegs-- }},
		{"TwoOperand", func(c *machine.Config) { c.TwoOperand = !c.TwoOperand }},
		{"LoadIndexed", func(c *machine.Config) { c.LoadIndexed = !c.LoadIndexed }},
	} {
		cfg := machine.SPARCstation10()
		v.set(&cfg)
		if res := build(cfg); res.Key == ss10.Key {
			t.Errorf("a config differing only in %s shares the SPARCstation 10 key", v.field)
		}
		misses(uint64(3 + i))
	}
}

// TestWarmBuildAllHits is the pipeline-smoke invariant: the second build
// of the same cell reports a cache hit at every stage.
func TestWarmBuildAllHits(t *testing.T) {
	r := NewRunner(artifact.New(0))
	w := workloads.All()[0]
	o := Options{Optimize: true, Annotate: true, Post: true, Machine: machine.SPARCstation10()}
	first, err := r.Build(context.Background(), w.Name+".c", w.Source, o)
	if err != nil {
		t.Fatal(err)
	}
	if first.Report.AllHits() {
		t.Fatal("cold build reported all stages as cache hits")
	}
	second, err := r.Build(context.Background(), w.Name+".c", w.Source, o)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Report.AllHits() {
		t.Fatalf("warm build missed a stage: %+v", second.Report.Stages)
	}
	if len(second.Report.Stages) != 7 {
		t.Fatalf("expected all 7 stages in the report, got %d: %+v",
			len(second.Report.Stages), second.Report.Stages)
	}
	if second.Prog != first.Prog {
		t.Error("warm build did not share the cached program")
	}
}

// TestVersionBumpInvalidatesStage proves the invalidation rule: bumping
// one stage's version recomputes that stage and everything downstream,
// while upstream artifacts stay warm.
func TestVersionBumpInvalidatesStage(t *testing.T) {
	r := NewRunner(artifact.New(0))
	w := workloads.All()[0]
	o := Options{Optimize: true, Machine: machine.SPARCstation10()}
	if _, err := r.Build(context.Background(), w.Name+".c", w.Source, o); err != nil {
		t.Fatal(err)
	}
	restore := SetVersionForTest(StageCodegen, "v1-test-bump")
	defer restore()
	res, err := r.Build(context.Background(), w.Name+".c", w.Source, o)
	if err != nil {
		t.Fatal(err)
	}
	byStage := map[string]StageReport{}
	for _, s := range res.Report.Stages {
		byStage[s.Stage] = s
	}
	for _, warm := range []Stage{StageLex, StageParse, StageTypecheck} {
		if !byStage[string(warm)].CacheHit {
			t.Errorf("%s recomputed after a codegen version bump", warm)
		}
	}
	for _, cold := range []Stage{StageCodegen, StageOptimize} {
		if byStage[string(cold)].CacheHit {
			t.Errorf("%s served from cache across its version bump", cold)
		}
	}
}

// TestStageFaultInjection drives every stage's fault point: the build,
// or for Execute the run, must fail with the injected error attributed
// to that stage, the error must not be cached, and a fault-free retry
// must succeed.
func TestStageFaultInjection(t *testing.T) {
	w := workloads.All()[0]
	for _, st := range Stages() {
		// Elide makes the optional Liveness stage run, so every fault
		// point in Stages() is reachable from one configuration.
		o := Options{Optimize: true, Annotate: true, Post: true, Machine: machine.SPARCstation10()}
		o.AnnotateOptions.Elide = true
		r := NewRunner(artifact.New(0))
		walk := func(ctx context.Context) error {
			b, err := r.Build(ctx, w.Name+".c", w.Source, o)
			if err != nil {
				return err
			}
			_, _, err = r.Execute(ctx, b.Prog, b.Key, interp.Options{Config: o.Machine, Input: w.Input})
			return err
		}
		faults, err := faultinject.Parse(st.FaultPoint()+"=error", 1)
		if err != nil {
			t.Fatal(err)
		}
		err = walk(faultinject.WithContext(context.Background(), faults))
		if err == nil {
			t.Fatalf("%s: build survived an injected fault", st)
		}
		if !errors.Is(err, faultinject.ErrInjected) {
			t.Fatalf("%s: error %v is not ErrInjected", st, err)
		}
		// A build error names its stage; Execute returns the run's errors
		// as they are.
		var se *StageError
		if st != StageExecute && (!errors.As(err, &se) || se.Stage != st) {
			t.Fatalf("%s: fault attributed to %v", st, err)
		}
		if s := r.StageStats(st); s.Errors == 0 {
			t.Errorf("%s: error not counted", st)
		}
		// Errors are never cached: the same runner must build and run
		// cleanly once the faults are gone.
		if err := walk(context.Background()); err != nil {
			t.Fatalf("%s: retry after fault failed: %v", st, err)
		}
	}
}

// TestContextCancellation: a canceled context aborts at the first stage
// boundary with the context's error visible through the StageError.
func TestContextCancellation(t *testing.T) {
	r := NewRunner(artifact.New(0))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	w := workloads.All()[0]
	_, err := r.Build(ctx, w.Name+".c", w.Source, Options{Machine: machine.SPARCstation10()})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

// TestParseErrorsMatchLegacyPath: errors surfaced by the staged front end
// are the parser's own, byte for byte, under the "parse" stage label.
func TestParseErrorsMatchLegacyPath(t *testing.T) {
	const bad = "int main( { return 0; }"
	_, direct := parser.Parse("bad.c", bad)
	if direct == nil {
		t.Fatal("expected a parse error")
	}
	r := NewRunner(artifact.New(0))
	_, err := r.Build(context.Background(), "bad.c", bad, Options{Machine: machine.SPARCstation10()})
	var se *StageError
	if !errors.As(err, &se) || se.Stage != StageParse {
		t.Fatalf("got %v, want a parse StageError", err)
	}
	if se.Err.Error() != direct.Error() {
		t.Fatalf("staged parse error %q != direct %q", se.Err, direct)
	}
}

// TestConcurrentBuildsSingleflight: a stampede of identical builds
// computes each stage once.
func TestConcurrentBuildsSingleflight(t *testing.T) {
	r := NewRunner(artifact.New(0))
	w := workloads.All()[0]
	o := Options{Optimize: true, Annotate: true, Machine: machine.SPARCstation10()}
	const n = 8
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = r.Build(context.Background(), w.Name+".c", w.Source, o)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, st := range []Stage{StageLex, StageParse, StageTypecheck, StageAnnotate, StageCodegen, StageOptimize} {
		if s := r.StageStats(st); s.Misses != 1 {
			t.Errorf("%s: %d misses under stampede, want 1", st, s.Misses)
		}
	}
}

// TestVersionBumpChangesKey: stage versions reach every key through the
// chain, so bumping any stage a build walks changes its final key (and
// the Annotate key, for the stages up to Annotate), and restoring the
// version restores the key.
func TestVersionBumpChangesKey(t *testing.T) {
	w := workloads.All()[0]
	name := w.Name + ".c"
	o := Options{Annotate: true, AnnotateOptions: gcsafe.Options{Elide: true}, Optimize: true, Post: true, Machine: machine.SPARCstation10()}
	before, beforeAnn := o.Key(name, w.Source), AnnotateKey(name, w.Source, o.AnnotateOptions)
	for _, st := range Stages() {
		if st == StageExecute {
			continue // no version: it keys on the run, not the program
		}
		restore := SetVersionForTest(st, "v-test-bump")
		bumped, bumpedAnn := o.Key(name, w.Source), AnnotateKey(name, w.Source, o.AnnotateOptions)
		restore()
		if bumped == before {
			t.Errorf("%s: the final key ignores the stage's version", st)
		}
		if upstream := st.index() <= StageAnnotate.index(); upstream == (bumpedAnn == beforeAnn) {
			t.Errorf("%s: Annotate key changed %v across the bump, want %v", st, bumpedAnn != beforeAnn, upstream)
		}
	}
	if o.Key(name, w.Source) != before {
		t.Fatal("key not restored with the version")
	}
}

// flipFields calls visit once per leaf field of the struct v points at,
// recursing into nested structs, with a copy of *v in which that one
// field has been changed. path names the field ("Machine.Costs.ALU").
func flipFields(t *testing.T, v any, visit func(path string, flipped any)) {
	t.Helper()
	var walk func(prefix string, typ reflect.Type, field func(root reflect.Value) reflect.Value)
	walk = func(prefix string, typ reflect.Type, field func(root reflect.Value) reflect.Value) {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			get := func(root reflect.Value) reflect.Value { return field(root).Field(i) }
			path := prefix + f.Name
			if f.Type.Kind() == reflect.Struct {
				walk(path+".", f.Type, get)
				continue
			}
			root := reflect.New(reflect.TypeOf(v).Elem()).Elem()
			root.Set(reflect.ValueOf(v).Elem())
			fv := get(root)
			switch fv.Kind() {
			case reflect.Bool:
				fv.SetBool(!fv.Bool())
			case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
				fv.SetInt(fv.Int() + 1)
			case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
				fv.SetUint(fv.Uint() + 1)
			case reflect.String:
				fv.SetString(fv.String() + "x")
			default:
				t.Fatalf("%s: no flip for kind %s", path, fv.Kind())
			}
			visit(path, root.Addr().Interface())
		}
	}
	walk("", reflect.TypeOf(v).Elem(), func(root reflect.Value) reflect.Value { return root })
}

// TestOptionsKeyCoversEveryField: flipping any field of Options —
// every annotator option included — changes the build's key, except the
// machine's name and cost model, which must not (the two SPARCstations
// share one program). A new knob needs one field and no key code; this
// test fails until the key folds it.
func TestOptionsKeyCoversEveryField(t *testing.T) {
	w := workloads.All()[0]
	name := w.Name + ".c"
	base := Options{Annotate: true, Optimize: true, Post: true, Machine: machine.SPARCstation10()}
	key := base.Key(name, w.Source)
	flipFields(t, &base, func(path string, flipped any) {
		shared := path == "Machine.Name" || strings.HasPrefix(path, "Machine.Costs.")
		if changed := flipped.(*Options).Key(name, w.Source) != key; changed == shared {
			t.Errorf("flipping %s: key changed = %v, want %v", path, changed, !shared)
		}
	})
	ann := AnnotateKey(name, w.Source, gcsafe.Options{})
	flipFields(t, &gcsafe.Options{}, func(path string, flipped any) {
		if AnnotateKey(name, w.Source, *flipped.(*gcsafe.Options)) == ann {
			t.Errorf("flipping AnnotateOptions.%s leaves the Annotate key unchanged", path)
		}
	})
	if AnnotateKey("other.c", w.Source, gcsafe.Options{}) == ann || (Options{}).Key("other.c", w.Source) == (Options{}).Key(name, w.Source) {
		t.Error("the file name does not reach the keys, but diagnostics carry it")
	}
}

// TestResultKeyIsOptionsKey: a build's Result.Key is the key Options.Key
// derives without building, for every treatment on every machine.
func TestResultKeyIsOptionsKey(t *testing.T) {
	r := NewRunner(artifact.New(0))
	w := workloads.All()[0]
	name := w.Name + ".c"
	for _, cfg := range machine.Configs() {
		for tname, o := range treatments() {
			o.Machine = cfg
			for _, elide := range []bool{false, true} {
				o.AnnotateOptions.Elide = elide
				res, err := r.Build(context.Background(), name, w.Source, o)
				if err != nil {
					t.Fatal(err)
				}
				if res.Key != o.Key(name, w.Source) {
					t.Errorf("%s [%s, elide %v]: Result.Key differs from Options.Key", tname, cfg.Name, elide)
				}
			}
		}
	}
}

// TestWireRoundTrip: the persistable stage artifacts survive an
// encode/decode cycle through the codec.
func TestWireRoundTrip(t *testing.T) {
	codec := Codec()

	r := NewRunner(artifact.New(0))
	w := workloads.All()[0]
	res, err := r.Build(context.Background(), w.Name+".c", w.Source,
		Options{Optimize: true, Annotate: true, Post: true, Machine: machine.SPARCstation10()})
	if err != nil {
		t.Fatal(err)
	}
	kind, data, ok := codec.Encode("k", res.Prog)
	if !ok || kind != kindProg {
		t.Fatalf("program did not encode (ok=%v kind=%q)", ok, kind)
	}
	v, size, err := codec.Decode(kind, data)
	if err != nil {
		t.Fatal(err)
	}
	back := v.(*machine.Program)
	if back.Listing() != res.Prog.Listing() {
		t.Error("program listing changed across the wire")
	}
	if size != progAccountedSize(res.Prog) {
		t.Errorf("accounted size %d != %d", size, progAccountedSize(res.Prog))
	}
	pp := &postprocessed{prog: res.Prog, stats: peephole.Stats{Fused: 1, InstrsAfter: res.Prog.Size()}}
	kind, data, ok = codec.Encode("k2", pp)
	if !ok || kind != kindPost {
		t.Fatalf("postprocessed did not encode (ok=%v kind=%q)", ok, kind)
	}
	v, _, err = codec.Decode(kind, data)
	if err != nil {
		t.Fatal(err)
	}
	if got := v.(*postprocessed); got.stats != pp.stats || got.prog.Listing() != pp.prog.Listing() {
		t.Error("postprocessed artifact changed across the wire")
	}
	// A clean execution, heap snapshot included, round-trips; a run that
	// ended in an error stays memory-only.
	run := interp.Options{Config: machine.SPARCstation10(), Input: w.Input, HeapProfile: true}
	if _, _, err := r.Execute(context.Background(), res.Prog, res.Key, run); err != nil {
		t.Fatal(err)
	}
	cached, _ := r.Cache().Get(run.Key(res.Key))
	x := cached.(*execution)
	kind, data, ok = codec.Encode("k4", x)
	if !ok || kind != kindExec {
		t.Fatalf("execution did not encode (ok=%v kind=%q)", ok, kind)
	}
	v, size, err = codec.Decode(kind, data)
	if err != nil {
		t.Fatal(err)
	}
	got := v.(*execution)
	if got.err != nil || got.res.Output != x.res.Output || got.res.OpCounts != x.res.OpCounts ||
		got.res.GCStats != x.res.GCStats || got.res.Price(run.Config) != x.res.Price(run.Config) {
		t.Error("execution changed across the wire")
	}
	if len(got.res.Snapshot.Objects) != len(x.res.Snapshot.Objects) || len(x.res.Snapshot.Objects) == 0 {
		t.Errorf("snapshot kept %d of %d objects across the wire", len(got.res.Snapshot.Objects), len(x.res.Snapshot.Objects))
	}
	if size != x.size() {
		t.Errorf("accounted size %d != %d", size, x.size())
	}
	// A run that ended in an error keeps its text and the two facts the
	// daemon reads from it: the step limit and a failed pointer check.
	for _, runErr := range []error{
		errors.New("machine fault"),
		fmt.Errorf("thread 2: %w", interp.ErrInstrLimit),
		fmt.Errorf("thread 1: %w", &interp.CheckError{Err: errors.New("p+8 left its object")}),
	} {
		kind, data, ok := codec.Encode("k5", &execution{res: x.res, err: runErr})
		if !ok {
			t.Fatalf("execution ending in %q did not encode", runErr)
		}
		v, _, err := codec.Decode(kind, data)
		if err != nil {
			t.Fatal(err)
		}
		got := v.(*execution)
		var ce, gotCE *interp.CheckError
		if got.err.Error() != runErr.Error() || got.res.Output != x.res.Output ||
			errors.Is(got.err, interp.ErrInstrLimit) != errors.Is(runErr, interp.ErrInstrLimit) ||
			errors.As(got.err, &gotCE) != errors.As(runErr, &ce) || (ce != nil && gotCE.Error() != ce.Error()) {
			t.Errorf("run error %q came back as %q", runErr, got.err)
		}
	}
	// The annotator's report round-trips without its tree.
	a := &annotated{file: res.Annotate.File, res: res.Annotate}
	kind, data, ok = codec.Encode("k6", a)
	if !ok || kind != kindAnnotate {
		t.Fatalf("annotate artifact did not encode (ok=%v kind=%q)", ok, kind)
	}
	v, size, err = codec.Decode(kind, data)
	if err != nil {
		t.Fatal(err)
	}
	back2 := v.(*annotated)
	want := *res.Annotate
	want.File = nil
	if back2.file != nil || !reflect.DeepEqual(*back2.res, want) || size != a.size() {
		t.Errorf("annotate artifact changed across the wire: %+v, size %d", back2.res, size)
	}
	// Unclaimed values stay memory-only.
	if _, _, ok := codec.Encode("k3", 42); ok {
		t.Error("codec claimed an unknown artifact type")
	}
}

// TestStatsShape: every stage appears in Stats() in dependency order with
// consistent counters.
func TestStatsShape(t *testing.T) {
	r := NewRunner(artifact.New(0))
	w := workloads.All()[0]
	if _, err := r.Build(context.Background(), w.Name+".c", w.Source,
		Options{Optimize: true, Machine: machine.SPARCstation10()}); err != nil {
		t.Fatal(err)
	}
	stats := r.Stats()
	if len(stats) != len(Stages()) {
		t.Fatalf("got %d stage stats, want %d", len(stats), len(Stages()))
	}
	for i, st := range Stages() {
		s := stats[i]
		if s.Stage != string(st) {
			t.Fatalf("stats[%d] = %s, want %s", i, s.Stage, st)
		}
		if s.Calls != s.Hits+s.Misses+s.Errors {
			t.Errorf("%s: calls %d != hits %d + misses %d + errors %d", s.Stage, s.Calls, s.Hits, s.Misses, s.Errors)
		}
	}
	// An unannotated, unpostprocessed build runs 5 of the 7 stages.
	ran := 0
	for _, s := range stats {
		if s.Calls > 0 {
			ran++
		}
	}
	if ran != 5 {
		t.Errorf("%d stages ran, want 5", ran)
	}
}

// TestPipelineSmokeWarmBuild is the `make check` pipeline-smoke step:
// build one workload twice and fail unless the second build is served
// entirely from the stage cache.
func TestPipelineSmokeWarmBuild(t *testing.T) {
	r := NewRunner(artifact.New(0))
	w := workloads.All()[0]
	o := Options{Optimize: true, Annotate: true, Post: true, Machine: machine.SPARCstation10()}
	if _, err := r.Build(context.Background(), w.Name+".c", w.Source, o); err != nil {
		t.Fatal(err)
	}
	res, err := r.Build(context.Background(), w.Name+".c", w.Source, o)
	if err != nil {
		t.Fatal(err)
	}
	hits := 0
	for _, s := range res.Report.Stages {
		if s.CacheHit {
			hits++
		}
	}
	if pctHit := fmt.Sprintf("%d/%d", hits, len(res.Report.Stages)); !res.Report.AllHits() {
		t.Fatalf("warm build stage-cache hits %s, want 100%%: %+v", pctHit, res.Report.Stages)
	}
}

// nestedSource is main returning core wrapped in n copies of open and
// close.
func nestedSource(open, core, close string, n int) string {
	return "int main(void) { int x = 1; return " + strings.Repeat(open, n) + core + strings.Repeat(close, n) + "; }"
}

// TestHostileNestingFailsAtParse: each deeply nested form at about 1 MB
// (the daemon's body limit) fails the build at the parse stage without
// overflowing the stack, while nesting ten times deeper than C11 asks for
// still builds. Each rejection takes well under a second on an idle core
// (lexing the megabyte is most of it); the bound allows twice that for a
// loaded host. Under -short (the race run) the forms are a twentieth of
// the size, still far past the bound.
func TestHostileNestingFailsAtParse(t *testing.T) {
	size := func(n int) int {
		if testing.Short() {
			return n / 20
		}
		return n
	}
	opts := Options{Annotate: true, Optimize: true, Machine: machine.SPARCstation10()}
	for _, c := range []struct{ name, src string }{
		{"parens", nestedSource("(", "1", ")", size(500_000))},
		{"prefix", nestedSource("! ", "x", "", size(500_000))},
		{"casts", nestedSource("(int)", "x", "", size(200_000))},
		{"assignments", nestedSource("x=", "1", "", size(500_000))},
		{"conditionals", nestedSource("x?x:", "x", "", size(250_000))},
		{"blocks", "int main(void) { " + strings.Repeat("{", size(500_000)) + strings.Repeat("}", size(500_000)) + " }"},
		{"array declarator", "int x" + strings.Repeat("[1]", size(333_000)) + ";"},
		{"function declarator", "int f" + strings.Repeat("(int (*)", size(110_000)) + "(void)" + strings.Repeat(")", size(110_000)) + ";"},
	} {
		start := time.Now()
		_, err := NewRunner(artifact.New(0)).Build(context.Background(), "deep.c", c.src, opts)
		var se *StageError
		if !errors.As(err, &se) || se.Stage != StageParse || !strings.Contains(err.Error(), "nesting exceeds") {
			t.Errorf("%s (%d bytes): got %v, want a parse-stage nesting error", c.name, len(c.src), err)
		}
		if d := time.Since(start); !testing.Short() && d > 2*time.Second {
			t.Errorf("%s: rejecting took %v", c.name, d)
		}
	}
	src := nestedSource("(", "1", ")", 630)
	if _, err := NewRunner(artifact.New(0)).Build(context.Background(), "nested.c", src, opts); err != nil {
		t.Fatalf("630 nested parentheses: %v", err)
	}
}
