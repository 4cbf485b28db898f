package pipeline

import (
	"context"
	"sync/atomic"
	"time"

	"gcsafety/internal/artifact"
	"gcsafety/internal/faultinject"
)

// Runner executes stages against one artifact cache, instrumenting every
// stage with call/hit/miss/error counters and cumulative duration. A
// Runner is safe for arbitrary concurrency; concurrent builds of the same
// inputs coalesce per stage through the cache's singleflight discipline,
// so each distinct artifact is computed once no matter how many builds
// race for it.
type Runner struct {
	cache   *artifact.Cache
	stats   [9]stageCounters // indexed by Stage.index()
	elision elisionCounters
	peer    Peer // the ladder's peer rung (nil: none; see serve.go)
}

// elisionCounters aggregates the annotator's elision outcomes across
// every Annotate-stage computation this Runner performed (cache hits
// reuse an artifact whose counts were tallied when it was computed).
type elisionCounters struct {
	considered   atomic.Uint64
	elided       atomic.Uint64
	elidedLive   atomic.Uint64
	elidedBounds atomic.Uint64
}

// ElisionStat is the runner-wide elision counter snapshot: how many
// annotation sites the liveness analysis considered, how many it elided
// (split by reason), and how many it kept.
type ElisionStat struct {
	Considered   uint64 `json:"considered"`
	Elided       uint64 `json:"elided"`
	ElidedLive   uint64 `json:"elided_live"`
	ElidedBounds uint64 `json:"elided_bounds"`
	Kept         uint64 `json:"kept"`
}

// ElisionStats snapshots the elision counters.
func (r *Runner) ElisionStats() ElisionStat {
	s := ElisionStat{
		Considered:   r.elision.considered.Load(),
		Elided:       r.elision.elided.Load(),
		ElidedLive:   r.elision.elidedLive.Load(),
		ElidedBounds: r.elision.elidedBounds.Load(),
	}
	s.Kept = s.Considered - s.Elided
	return s
}

type stageCounters struct {
	calls      atomic.Uint64
	hits       atomic.Uint64
	misses     atomic.Uint64
	errors     atomic.Uint64
	durationNs atomic.Uint64
}

// NewRunner returns a Runner over cache. Callers that want stage
// artifacts to share an LRU budget (and a disk tier) with other artifacts
// pass the shared cache; short-lived harnesses pass artifact.New(0).
func NewRunner(cache *artifact.Cache) *Runner {
	return &Runner{cache: cache}
}

// Cache exposes the underlying artifact cache.
func (r *Runner) Cache() *artifact.Cache { return r.cache }

// StageStat is one stage's instrumentation snapshot. A call that waited
// on another build's in-flight computation counts as a hit — it did not
// compute; errors (including injected faults) are counted separately and
// never cached.
type StageStat struct {
	Stage      string  `json:"stage"`
	Calls      uint64  `json:"calls"`
	Hits       uint64  `json:"hits"`
	Misses     uint64  `json:"misses"`
	Errors     uint64  `json:"errors"`
	DurationMs float64 `json:"duration_ms"`
}

// Stats snapshots every stage's counters, in dependency order.
func (r *Runner) Stats() []StageStat {
	out := make([]StageStat, 0, len(r.stats))
	for i, s := range Stages() {
		c := &r.stats[i]
		out = append(out, StageStat{
			Stage:      string(s),
			Calls:      c.calls.Load(),
			Hits:       c.hits.Load(),
			Misses:     c.misses.Load(),
			Errors:     c.errors.Load(),
			DurationMs: float64(c.durationNs.Load()) / 1e6,
		})
	}
	return out
}

// StageStats snapshots one stage's counters.
func (r *Runner) StageStats(s Stage) StageStat {
	for _, st := range r.Stats() {
		if st.Stage == string(s) {
			return st
		}
	}
	return StageStat{Stage: string(s)}
}

// BuildReport describes one build's walk of the stage graph: which stages
// ran, whether each was served from cache, and how long each took from
// this build's perspective (a hit's duration is the lookup, or the wait
// on another build's in-flight computation).
type BuildReport struct {
	Stages []StageReport `json:"stages"`
	// Elision describes the annotate stage's elision outcome for this
	// build (nil unless the build ran with elision enabled). A cache hit
	// carries the counts recorded when the artifact was computed.
	Elision *ElisionStat `json:"elision,omitempty"`
}

// StageReport is one stage execution within a build.
type StageReport struct {
	Stage      string  `json:"stage"`
	CacheHit   bool    `json:"cache_hit"`
	DurationMs float64 `json:"duration_ms"`
}

// AllHits reports whether every stage of the build was served from cache
// — the warm-build invariant the pipeline-smoke check enforces.
func (b *BuildReport) AllHits() bool {
	for _, s := range b.Stages {
		if !s.CacheHit {
			return false
		}
	}
	return len(b.Stages) > 0
}

// run executes one stage: a ctx check at the boundary, the stage's fault
// injection point, then the computation, cached under key unless key is
// empty. The returned error is the raw stage error; Build wraps it in a
// StageError.
func (r *Runner) run(ctx context.Context, st Stage, key artifact.Key, rep *BuildReport, compute func() (any, int64, error)) (any, bool, error) {
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	c := &r.stats[st.index()]
	c.calls.Add(1)
	start := time.Now()
	fire := func() (any, int64, error) {
		if ferr := faultinject.For(ctx).FireCtx(ctx, st.FaultPoint()); ferr != nil {
			return nil, 0, ferr
		}
		return compute()
	}
	var v any
	var hit bool
	var err error
	if key == "" {
		v, _, err = fire()
	} else {
		v, hit, err = r.cache.GetOrCompute(ctx, key, fire)
	}
	d := time.Since(start)
	c.durationNs.Add(uint64(d.Nanoseconds()))
	if err != nil {
		c.errors.Add(1)
		return nil, false, err
	}
	if hit {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	if rep != nil {
		rep.Stages = append(rep.Stages, StageReport{
			Stage:      string(st),
			CacheHit:   hit,
			DurationMs: float64(d.Nanoseconds()) / 1e6,
		})
	}
	return v, hit, nil
}

// StageError attributes a build failure to the stage that produced it.
// It unwraps to the underlying error, so errors.Is/As see through it
// (context cancellation, faultinject.ErrInjected, parser and codegen
// error types).
type StageError struct {
	Stage Stage
	Err   error
}

func (e *StageError) Error() string { return string(e.Stage) + ": " + e.Err.Error() }

func (e *StageError) Unwrap() error { return e.Err }

// Phase names the build phase the failed stage belongs to, as error
// messages spell it: "parse" for the front end, "annotate" for the
// annotator, and "compile" for the rest, Liveness included.
func (e *StageError) Phase() string {
	switch e.Stage {
	case StageLex, StageParse, StageTypecheck:
		return "parse"
	case StageAnnotate:
		return "annotate"
	}
	return "compile"
}
