package pipeline

import (
	"context"
	"fmt"
	"time"

	"gcsafety/internal/artifact"
	"gcsafety/internal/faultinject"
	"gcsafety/internal/gcsafe"
	"gcsafety/internal/interp"
	"gcsafety/internal/machine"
)

// The daemon's ladder: Report, Program and Run look their stage's key up
// in memory, then on disk, then at the key's owning Peer, and walk —
// compute the stage from its upstream stages — only when all three miss,
// so a restarted daemon serves a run from disk without rebuilding its
// program, and a node that does not own a key never compiles it. A run's
// owner is its program's, so the owner never asks another node for the
// program. The ladder runs under the cache's singleflight for the key, so
// the walk computes the stage without filing it.

// Recipe names one artifact the daemon serves by its inputs, in the
// wire's vocabulary: the stage (a program's is its build's LastStage),
// the translation unit, the treatment, the annotator's switches, and a
// run's step budget and heap profiling. A key's owner can make the
// artifact only from its inputs, so a recipe is what a peer sends it.
type Recipe struct {
	Stage  Stage  `json:"stage"`
	Name   string `json:"name"`
	Source string `json:"source"`
	Spec
	Annotator   AnnotateSpec `json:"annotator"`
	MaxSteps    uint64       `json:"max_steps"`
	HeapProfile bool         `json:"heap_profile"`
}

// maxThreads bounds a served run's threads, which share one stack region.
const maxThreads = 16

// RecipeError is a recipe that names no artifact, or not the key asked for.
type RecipeError struct{ Err error }

func (e *RecipeError) Error() string { return e.Err.Error() }

// Peer is the ladder's owning-peer rung, and hears of the work it did.
// An artifact lives on the owner of its home key: its own key, or a
// run's program's.
type Peer interface {
	// Fetch asks the owner of home for the artifact rec names, which
	// hashes to key; ok is false when this node owns home or the owner
	// could not serve it.
	Fetch(ctx context.Context, home, key artifact.Key, rec *Recipe) (v any, size int64, ok bool)
	// Computed is told of each artifact a walk computed here; key is
	// empty for a run with faults armed, which no tier holds.
	Computed(ctx context.Context, home, key artifact.Key, rec *Recipe, v any)
}

// SetPeer installs the ladder's peer rung. Call before serving traffic.
func (r *Runner) SetPeer(p Peer) { r.peer = p }

// Served is a program the ladder served and, from Run, its run.
type Served struct {
	Prog    *machine.Program
	Machine machine.Config // the recipe's machine
	Hit     bool           // this node's memory or disk held the program
	Result  *interp.Result // the run's, priced on Machine (Run only)
	RunHit  bool           // this node's memory or disk held the run
}

// job is a resolved recipe: its keys and the options its walk needs.
type job struct {
	*Recipe
	key, home artifact.Key
	k         keys // the stage keys of the unit's annotation or build
	ann       gcsafe.Options
	build     Options
	run       interp.Options
	timeout   time.Duration // bounds a run's execution (0: ctx alone)
}

// resolve validates rec and derives its keys through the public
// endpoints' conversions.
func (rec *Recipe) resolve() (*job, error) {
	j := &job{Recipe: rec}
	var err error
	switch rec.Stage {
	case StageAnnotate:
		j.ann, err = rec.Annotator.AnnotateOptions()
		j.k = frontKeys(rec.Name, rec.Source).withAnnotate(j.ann)
		j.key = j.k.annotate
	case StageOptimize, StagePeephole, StageExecute:
		j.build, j.run, err = rec.Spec.Options()
		j.k = j.build.keys(rec.Name, rec.Source)
		j.key = j.k.final()
		switch {
		case err != nil:
		case rec.Stage != StageExecute && rec.Stage != rec.LastStage():
			err = fmt.Errorf("stage %s does not end the build (%s does)", rec.Stage, rec.LastStage())
		case rec.Stage == StageExecute && (rec.Threads < 0 || rec.Threads > maxThreads):
			err = fmt.Errorf("threads %d out of range (max %d)", rec.Threads, maxThreads)
		case rec.Stage == StageExecute:
			j.run.MaxInstrs, j.run.HeapProfile = rec.MaxSteps, rec.HeapProfile
			j.key = j.run.Key(j.key)
		}
	default:
		err = fmt.Errorf("no recipe serves stage %q", rec.Stage)
	}
	if err != nil {
		return nil, &RecipeError{err}
	}
	j.home = j.key
	if rec.Stage == StageExecute {
		j.home = j.k.final()
	}
	return j, nil
}

// program is the job of the program a run job runs (itself otherwise).
func (j *job) program() *job {
	if j.Stage != StageExecute {
		return j
	}
	rec := &Recipe{Stage: j.LastStage(), Name: j.Name, Source: j.Source, Spec: Spec{BuildSpec: j.BuildSpec}}
	return &job{Recipe: rec, key: j.home, home: j.home, k: j.k, build: j.build}
}

// Report returns an annotate recipe's report (File is nil when it came
// from disk or a peer); hit, here as for Program and Run, means this
// node's memory or disk held it.
func (r *Runner) Report(ctx context.Context, rec *Recipe) (*gcsafe.Result, bool, error) {
	j, err := rec.resolve()
	if err != nil {
		return nil, false, err
	}
	v, hit, err := r.serve(ctx, j, true)
	if err != nil {
		return nil, false, err
	}
	return v.(*annotated).res, hit, nil
}

// Program serves the program a program recipe builds, or an execute
// recipe runs.
func (r *Runner) Program(ctx context.Context, rec *Recipe) (*Served, error) {
	j, err := rec.resolve()
	if err != nil {
		return nil, err
	}
	return r.program(ctx, j)
}

func (r *Runner) program(ctx context.Context, j *job) (*Served, error) {
	v, hit, err := r.serve(ctx, j.program(), true)
	if err != nil {
		return nil, err
	}
	return &Served{Prog: programOf(v), Machine: j.build.Machine, Hit: hit}, nil
}

// Run serves an execute recipe: its program, as Program does, then its
// run as Execute does, with ctx's faults armed (such a run is neither cached
// nor fetched). timeout (0: none) bounds the execution here, and a wait
// on another request's run of the same key, but not the wait on a peer,
// which the peer rung bounds. Once the program is served, Run returns it
// with any error: the run's own, a context error, or an injected fault;
// before, the error is a *RecipeError, a *StageError from the build, or
// a context error.
func (r *Runner) Run(ctx context.Context, rec *Recipe, timeout time.Duration) (*Served, error) {
	j, err := rec.resolve()
	if err != nil {
		return nil, err
	}
	sv, err := r.program(ctx, j)
	if err != nil {
		return nil, err
	}
	j.timeout = timeout
	v, hit, err := r.serve(ctx, j, true)
	if err != nil {
		return sv, err
	}
	sv.Result, err = v.(*execution).priced(j.run.Config)
	sv.RunHit = hit
	return sv, err
}

// Serve is the owner's side of the peer rung: the cached form of the
// artifact rec names, provided rec hashes to key. It never asks a peer,
// so two stale rings cannot bounce a request between them.
func (r *Runner) Serve(ctx context.Context, key artifact.Key, rec *Recipe) (any, bool, error) {
	j, err := rec.resolve()
	if err != nil {
		return nil, false, err
	}
	if j.key != key {
		return nil, false, &RecipeError{fmt.Errorf("recipe hashes to %s, request says %s", j.key, key)}
	}
	return r.serve(ctx, j, false)
}

// serve climbs the ladder for j, skipping the peer rung unless peer. A
// lookup the ladder answers counts as a hit of j's stage; a walk counts
// its stages itself.
func (r *Runner) serve(ctx context.Context, j *job, peer bool) (any, bool, error) {
	key := j.key
	if j.Stage == StageExecute && faultinject.For(ctx) != nil {
		key = ""
	}
	wait := ctx
	if j.timeout > 0 {
		var cancel context.CancelFunc
		wait, cancel = context.WithTimeout(ctx, j.timeout)
		defer cancel()
	}
	walked := false
	walk := func() (any, int64, error) {
		if peer && key != "" && r.peer != nil {
			if v, size, ok := r.peer.Fetch(ctx, j.home, key, j.Recipe); ok {
				return v, size, nil
			}
		}
		walked = true
		return r.walk(ctx, j, peer)
	}
	var (
		v   any
		hit bool
		err error
	)
	if key == "" {
		v, _, err = walk()
	} else {
		v, hit, err = r.cache.GetOrCompute(wait, key, walk)
	}
	if walked {
		if err == nil && r.peer != nil {
			r.peer.Computed(ctx, j.home, key, j.Recipe, v)
		}
		return v, hit, err
	}
	c := &r.stats[j.Stage.index()]
	c.calls.Add(1)
	if err != nil {
		c.errors.Add(1)
	} else {
		c.hits.Add(1)
	}
	return v, hit, err
}

// walk computes j's stage from its upstream stages, without filing it; a
// run's program comes from the ladder, its peer rung included if peer.
func (r *Runner) walk(ctx context.Context, j *job, peer bool) (any, int64, error) {
	switch j.Stage {
	case StageAnnotate:
		k := j.k
		k.annotate = ""
		ck, err := r.frontEnd(ctx, j.Name, j.Source, k, nil)
		if err != nil {
			return nil, 0, err
		}
		a, _, err := r.annotate(ctx, ck, k, j.ann, nil)
		if err != nil {
			return nil, 0, err
		}
		return a, a.size(), nil
	case StageExecute:
		v, _, err := r.serve(ctx, j.program(), peer)
		if err != nil {
			return nil, 0, err
		}
		prog, run := programOf(v), j.run
		run.Faults = faultinject.FromContext(ctx)
		if j.timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, j.timeout)
			defer cancel()
		}
		if v, _, err = r.run(ctx, StageExecute, "", nil, func() (any, int64, error) {
			return execute(ctx, prog, run)
		}); err != nil {
			return nil, 0, err
		}
		return v, v.(*execution).size(), nil
	}
	k := j.k
	if j.build.Post {
		k.peephole = ""
	} else {
		k.optimize = ""
	}
	res, err := r.build(ctx, j.Name, j.Source, j.build, k, nil)
	if err != nil {
		return nil, 0, err
	}
	if res.Peephole != nil {
		return &postprocessed{prog: res.Prog, stats: *res.Peephole}, progAccountedSize(res.Prog), nil
	}
	return res.Prog, progAccountedSize(res.Prog), nil
}

// programOf is the program in a final-stage artifact.
func programOf(v any) *machine.Program {
	if p, ok := v.(*postprocessed); ok {
		return p.prog
	}
	return v.(*machine.Program)
}
