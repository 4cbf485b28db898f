// Package faultinject is a deterministic, seeded fault-injection framework
// for the gcsafety stack. Production code declares named fault points —
// "gc.alloc", "artifact.disk.read", "server.handler", ... — by calling
// Fire (or Set.Fire) at the site where a failure could occur. With no
// rules installed a fault point is inert: one nil check (package-level
// Fire adds a single atomic load), no allocation, no lock.
//
// A Set is a compiled collection of rules parsed from a spec string:
//
//	point=action[,p=0.5][,after=N][,times=N][,ms=N][,msg=text][;point=...]
//
// where action is one of
//
//	error   Fire returns an *InjectedError (the site fails)
//	panic   Fire panics (exercises recovery paths)
//	sleep   Fire sleeps ms milliseconds, then returns nil (latency)
//
// and the optional parameters are
//
//	p=F       probability per hit in [0,1] (default 1: every hit fires)
//	after=N   the first N hits never fire (default 0)
//	times=N   fire at most N times (default 0: unlimited)
//	ms=N      sleep duration for the sleep action (default 10, max 5000)
//	msg=text  error / panic message (default "injected fault")
//
// Firing is deterministic: whether hit number n of a point fires depends
// only on (seed, point name, n), never on wall-clock time or goroutine
// interleaving, so a chaos run at a fixed seed injects the same fault
// schedule every time. Per-point hit counters are atomic, so a Set is
// safe for concurrent use.
//
// Activation is explicit: install a Set globally (SetGlobal / FromEnv,
// which reads GCSAFETY_FAULTS and GCSAFETY_FAULT_SEED), or carry one in a
// context (WithContext / FromContext) for request-scoped injection — the
// gcsafed daemon builds per-request Sets from the X-Fault-Inject header.
package faultinject

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// Canonical fault-point names. The string is the identity: rules match
// points by exact name. See DESIGN.md "Failure taxonomy and fault points"
// for what each simulates.
const (
	// PointGCAlloc fails a heap allocation (simulated heap exhaustion /
	// allocator failure). Error action only.
	PointGCAlloc = "gc.alloc"
	// PointGCCollectForce, when it fires at an allocation, forces a full
	// collection even though no trigger was reached — a collection-schedule
	// perturbation (the "unlikely interleaving" generator). Any action
	// counts as firing; error is conventional.
	PointGCCollectForce = "gc.collect.force"
	// PointGCCollect fires at the start of every collection; use the sleep
	// action to simulate slow collections. Error actions are ignored here
	// (a collection cannot fail).
	PointGCCollect = "gc.collect"
	// PointInterpStep fires at the interpreter's context-poll stride;
	// error aborts the run with a machine fault.
	PointInterpStep = "interp.step"
	// PointDiskRead / PointDiskWrite fail artifact disk-tier I/O.
	PointDiskRead  = "artifact.disk.read"
	PointDiskWrite = "artifact.disk.write"
	// PointServerHandler fires at the top of every gcsafed endpoint
	// handler: error becomes a 500, panic exercises the recovery
	// middleware, sleep delays the response.
	PointServerHandler = "server.handler"
	// PointHeapdump fires at the start of every heap-snapshot capture
	// (internal/interp CaptureSnapshot): error fails the capture — the
	// run's own outcome is never affected, only the snapshot is lost.
	PointHeapdump = "heapdump.capture"
	// PointPeerGet / PointPeerPut fire before the corresponding
	// cache-peering RPC (internal/cluster): error severs the peer link for
	// that operation — the caller falls back down its ladder (local
	// compute for a get, a dropped best-effort replication for a put) —
	// and sleep simulates a slow peer.
	PointPeerGet = "cluster.peer.get"
	PointPeerPut = "cluster.peer.put"
	// PointPipeline* fire inside the corresponding compilation stage of
	// internal/pipeline, before the stage's real work: error fails the
	// build at exactly that stage boundary (never corrupting a cached
	// artifact — stage errors are not cached), sleep delays it. One point
	// per stage of the Lex → Parse → Typecheck → Liveness → Annotate →
	// Codegen → Optimize → Peephole → Execute graph (Liveness only runs
	// for elided treatments; at Execute, an error fails the run).
	PointPipelineLex       = "pipeline.lex"
	PointPipelineParse     = "pipeline.parse"
	PointPipelineTypecheck = "pipeline.typecheck"
	PointPipelineLiveness  = "pipeline.liveness"
	PointPipelineAnnotate  = "pipeline.annotate"
	PointPipelineCodegen   = "pipeline.codegen"
	PointPipelineOptimize  = "pipeline.optimize"
	PointPipelinePeephole  = "pipeline.peephole"
	PointPipelineExecute   = "pipeline.execute"
)

// Action is what a rule does when it fires.
type Action int

const (
	// ActError makes Fire return an *InjectedError.
	ActError Action = iota
	// ActPanic makes Fire panic.
	ActPanic
	// ActSleep makes Fire sleep, then return nil.
	ActSleep
)

func (a Action) String() string {
	switch a {
	case ActError:
		return "error"
	case ActPanic:
		return "panic"
	case ActSleep:
		return "sleep"
	}
	return fmt.Sprintf("Action(%d)", int(a))
}

// ErrInjected is the sentinel matched by errors.Is for every injected
// error, so callers can distinguish injected failures from organic ones.
var ErrInjected = errors.New("injected fault")

// MaxSleep bounds the sleep action: Parse rejects a larger ms value and
// NewSet clamps, so an injected latency can park a goroutine for a few
// seconds at most — never long enough to be a resource-exhaustion vector
// in its own right.
const MaxSleep = 5 * time.Second

// InjectedError is the error returned by a fired error-action rule.
type InjectedError struct {
	Point string
	Msg   string
}

func (e *InjectedError) Error() string {
	return fmt.Sprintf("injected fault at %s: %s", e.Point, e.Msg)
}

// Is makes errors.Is(err, ErrInjected) true for injected errors.
func (e *InjectedError) Is(target error) bool { return target == ErrInjected }

// Rule is one parsed injection rule.
type Rule struct {
	Point  string
	Action Action
	Prob   float64 // per-hit firing probability (1 = always)
	After  uint64  // hits to skip before the rule is eligible
	Times  uint64  // max firings (0 = unlimited)
	Sleep  time.Duration
	Msg    string
}

// rule is a Rule plus its runtime counters.
type rule struct {
	Rule
	hits  atomic.Uint64
	fired atomic.Uint64
}

// Set is a compiled, seeded collection of rules. The zero of *Set (nil)
// is valid and inert. After construction a Set is immutable apart from
// its atomic counters, so it is safe for concurrent use.
type Set struct {
	seed   uint64
	points map[string][]*rule
	spec   string
}

// NewSet compiles rules under a seed. It is the programmatic alternative
// to Parse.
func NewSet(seed uint64, rules ...Rule) *Set {
	s := &Set{seed: seed, points: map[string][]*rule{}}
	for _, r := range rules {
		if r.Prob <= 0 || r.Prob > 1 {
			r.Prob = 1
		}
		if r.Msg == "" {
			r.Msg = "injected fault"
		}
		if r.Action == ActSleep && r.Sleep <= 0 {
			r.Sleep = 10 * time.Millisecond
		}
		if r.Sleep > MaxSleep {
			r.Sleep = MaxSleep
		}
		s.points[r.Point] = append(s.points[r.Point], &rule{Rule: r})
	}
	return s
}

// Parse compiles a spec string (see the package comment for the grammar)
// under a seed. An empty spec yields a valid Set with no rules.
func Parse(spec string, seed uint64) (*Set, error) {
	var rules []Rule
	for _, clause := range strings.Split(spec, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		point, rest, ok := strings.Cut(clause, "=")
		if !ok {
			return nil, fmt.Errorf("faultinject: %q: want point=action[,params]", clause)
		}
		parts := strings.Split(rest, ",")
		r := Rule{Point: strings.TrimSpace(point), Prob: 1}
		switch strings.TrimSpace(parts[0]) {
		case "error":
			r.Action = ActError
		case "panic":
			r.Action = ActPanic
		case "sleep":
			r.Action = ActSleep
		default:
			return nil, fmt.Errorf("faultinject: %q: unknown action %q (want error, panic or sleep)", clause, parts[0])
		}
		for _, p := range parts[1:] {
			k, v, ok := strings.Cut(strings.TrimSpace(p), "=")
			if !ok {
				return nil, fmt.Errorf("faultinject: %q: bad parameter %q", clause, p)
			}
			switch k {
			case "p":
				f, err := strconv.ParseFloat(v, 64)
				if err != nil || f < 0 || f > 1 {
					return nil, fmt.Errorf("faultinject: %q: p=%q not a probability", clause, v)
				}
				r.Prob = f
			case "after":
				n, err := strconv.ParseUint(v, 10, 64)
				if err != nil {
					return nil, fmt.Errorf("faultinject: %q: bad after=%q", clause, v)
				}
				r.After = n
			case "times":
				n, err := strconv.ParseUint(v, 10, 64)
				if err != nil {
					return nil, fmt.Errorf("faultinject: %q: bad times=%q", clause, v)
				}
				r.Times = n
			case "ms":
				n, err := strconv.ParseUint(v, 10, 32)
				if err != nil || time.Duration(n)*time.Millisecond > MaxSleep {
					return nil, fmt.Errorf("faultinject: %q: bad ms=%q (max %d)", clause, v, MaxSleep/time.Millisecond)
				}
				r.Sleep = time.Duration(n) * time.Millisecond
			case "msg":
				r.Msg = v
			default:
				return nil, fmt.Errorf("faultinject: %q: unknown parameter %q", clause, k)
			}
		}
		rules = append(rules, r)
	}
	s := NewSet(seed, rules...)
	s.spec = spec
	return s, nil
}

// Spec returns the spec string the Set was parsed from ("" for NewSet).
func (s *Set) Spec() string {
	if s == nil {
		return ""
	}
	return s.spec
}

// Seed returns the Set's seed.
func (s *Set) Seed() uint64 {
	if s == nil {
		return 0
	}
	return s.seed
}

// Fire evaluates the rules for point against this hit. It returns an
// *InjectedError when an error rule fires, panics when a panic rule
// fires, sleeps (then returns nil) when a sleep rule fires, and returns
// nil otherwise. A nil Set is inert.
func (s *Set) Fire(point string) error {
	return s.FireCtx(context.Background(), point)
}

// FireCtx is Fire with a context: a firing sleep rule waits on the
// context too, so a cancelled request is released from an injected
// latency immediately (FireCtx then returns ctx.Err()).
func (s *Set) FireCtx(ctx context.Context, point string) error {
	if s == nil {
		return nil
	}
	rules := s.points[point]
	if rules == nil {
		return nil
	}
	for _, r := range rules {
		n := r.hits.Add(1) - 1
		if n < r.After {
			continue
		}
		if r.Times > 0 && r.fired.Load() >= r.Times {
			continue
		}
		if r.Prob < 1 && !decide(s.seed, point, n, r.Prob) {
			continue
		}
		r.fired.Add(1)
		switch r.Action {
		case ActPanic:
			panic(fmt.Sprintf("injected panic at %s: %s", point, r.Msg))
		case ActSleep:
			if err := sleepCtx(ctx, r.Sleep); err != nil {
				return err
			}
		default:
			return &InjectedError{Point: point, Msg: r.Msg}
		}
	}
	return nil
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	if ctx.Done() == nil {
		time.Sleep(d)
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Fired reports how many times any rule for point has fired (tests,
// metrics).
func (s *Set) Fired(point string) uint64 {
	if s == nil {
		return 0
	}
	var total uint64
	for _, r := range s.points[point] {
		total += r.fired.Load()
	}
	return total
}

// decide is the deterministic per-hit coin flip: a hash of (seed, point,
// hit index) mapped into [0,1) and compared against p. Concurrent hits
// race only for hit indices, so any given schedule of N hits fires the
// same multiset of decisions regardless of interleaving.
func decide(seed uint64, point string, n uint64, p float64) bool {
	h := seed ^ 0x9E3779B97F4A7C15
	for i := 0; i < len(point); i++ {
		h = (h ^ uint64(point[i])) * 0x100000001B3
	}
	h ^= n + 0x9E3779B97F4A7C15 + (h << 6) + (h >> 2)
	// splitmix64 finalizer
	h ^= h >> 30
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 27
	h *= 0x94D049BB133111EB
	h ^= h >> 31
	return float64(h>>11)/float64(1<<53) < p
}

// global is the process-wide Set consulted by the package-level Fire.
var global atomic.Pointer[Set]

// SetGlobal installs (or with nil, removes) the process-wide Set.
func SetGlobal(s *Set) { global.Store(s) }

// Global returns the process-wide Set (nil when fault injection is off).
func Global() *Set { return global.Load() }

// Enabled reports whether a global Set is installed.
func Enabled() bool { return global.Load() != nil }

// Fire fires point against the global Set; inert (one atomic load) when
// no Set is installed.
func Fire(point string) error {
	s := global.Load()
	if s == nil {
		return nil
	}
	return s.Fire(point)
}

// EnvVar and EnvSeedVar are the environment knobs read by FromEnv.
const (
	EnvVar     = "GCSAFETY_FAULTS"
	EnvSeedVar = "GCSAFETY_FAULT_SEED"
)

// FromEnv parses GCSAFETY_FAULTS (spec) and GCSAFETY_FAULT_SEED (uint64,
// default 1) and installs the result globally. With GCSAFETY_FAULTS
// unset or empty it is a no-op. getenv is usually os.Getenv; it is a
// parameter for testability.
func FromEnv(getenv func(string) string) (*Set, error) {
	spec := getenv(EnvVar)
	if spec == "" {
		return nil, nil
	}
	seed := uint64(1)
	if v := getenv(EnvSeedVar); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("faultinject: bad %s=%q", EnvSeedVar, v)
		}
		seed = n
	}
	s, err := Parse(spec, seed)
	if err != nil {
		return nil, err
	}
	SetGlobal(s)
	return s, nil
}

// ctxKey is the context key for request-scoped Sets.
type ctxKey struct{}

// WithContext returns a context carrying s.
func WithContext(ctx context.Context, s *Set) context.Context {
	return context.WithValue(ctx, ctxKey{}, s)
}

// FromContext returns the Set carried by ctx, or nil.
func FromContext(ctx context.Context) *Set {
	s, _ := ctx.Value(ctxKey{}).(*Set)
	return s
}

// For resolves the Set in effect for ctx: the request-scoped Set when
// one is attached, else the process-wide Set, else nil (inert). Sites
// reached only through a context — the artifact disk tier — fire on
// this so both activation paths cover them.
func For(ctx context.Context) *Set {
	if s := FromContext(ctx); s != nil {
		return s
	}
	return Global()
}
