package main

import (
	"context"
	"fmt"

	"gcsafety/internal/artifact"
	"gcsafety/internal/bench"
	"gcsafety/internal/interp"
	"gcsafety/internal/machine"
	"gcsafety/internal/pipeline"
	"gcsafety/internal/workloads"
)

// hostileRun is one run of the hostile-gc pass, built at set-up.
type hostileRun struct {
	c    buildCase
	prog *machine.Program
	// cycles is what the set-up pass measured; every pass must repeat it.
	cycles uint64
}

// hostileInst is the hostile-gc workload: the Zorn programs under the
// adversarial collection schedules the safety tests and fuzz cells use.
type hostileInst struct {
	runner *pipeline.Runner
	runs   []hostileRun
}

// gcPeriod is the seed's asynchronous-collection period: one of the primes
// in [997, 1999], so collections never fall into step with a program loop.
func gcPeriod(seed int64) uint64 {
	var primes []uint64
	for n := uint64(997); n <= 1999; n++ {
		prime := true
		for d := uint64(2); d*d <= n; d++ {
			if n%d == 0 {
				prime = false
				break
			}
		}
		if prime {
			primes = append(primes, n)
		}
	}
	return primes[mix(seed, 1)%uint64(len(primes))]
}

func setupHostile(seed int64) (instance, error) {
	ss10 := machine.SPARCstation10()
	var cs []buildCase
	add := func(w workloads.Workload, tr bench.Treatment, exec interp.Options) {
		exec.Config = ss10
		exec.Input = w.Input
		exec.Validate = true
		cs = append(cs, buildCase{
			label:     fmt.Sprintf("%s [%s]", w.Name, tr.Name),
			file:      w.Name + ".c",
			src:       w.Source,
			annotate:  annotationOf(tr),
			optimize:  tr.Optimize,
			exec:      exec,
			want:      w.Want,
			wantCheck: tr.Checked && w.CheckedFails,
		})
	}
	for _, w := range workloads.All() {
		add(w, bench.OptSafe, interp.Options{CollectAtEveryAlloc: true})
		add(w, bench.DebugChecked, interp.Options{CollectAtEveryAlloc: true})
	}
	p := gcPeriod(seed)
	for _, w := range workloads.All() {
		add(w, bench.OptSafe, interp.Options{GCEveryInstrs: p})
	}

	h := &hostileInst{runner: pipeline.NewRunner(artifact.New(0))}
	for _, c := range cs {
		b, err := h.runner.Build(context.Background(), c.file, c.src, c.options())
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.label, err)
		}
		h.runs = append(h.runs, hostileRun{c: c, prog: b.Prog})
	}
	// The untimed first pass warms the process and records each run's
	// cycles.
	for i := range h.runs {
		r := &h.runs[i]
		res, err := interp.Run(r.prog, r.c.exec)
		if err := r.c.verifyRun(res, err); err != nil {
			return nil, err
		}
		r.cycles = cyclesOf(res)
	}
	return h, nil
}

func (h *hostileInst) clients() int { return 1 }

func (h *hostileInst) op(_, _ int, tr *tracer, parent int) error {
	for i := range h.runs {
		r := &h.runs[i]
		sp := tr.begin("run", parent)
		res, err := interp.Run(r.prog, r.c.exec)
		tr.end(sp)
		if err := r.c.verifyRun(res, err); err != nil {
			return err
		}
		if got := cyclesOf(res); got != r.cycles {
			return fmt.Errorf("%s: %d simulated cycles, set-up measured %d", r.c.label, got, r.cycles)
		}
	}
	return nil
}

// counters reports the set-up builds: the operations build nothing.
func (h *hostileInst) counters() (counters, error) {
	var n counters
	for _, s := range h.runner.Stats() {
		n.stageCalls += s.Calls
		n.stageHits += s.Hits
		n.stageComputes += s.Misses
	}
	cs := h.runner.Cache().Stats()
	n.cacheHits, n.cacheMisses, n.evictions, n.cacheBytes = cs.Hits, cs.Misses, cs.Evictions, cs.Bytes
	return n, nil
}

func (h *hostileInst) cases() ([]buildCase, error) {
	cs := make([]buildCase, len(h.runs))
	for i, r := range h.runs {
		cs[i] = r.c
	}
	return cs, nil
}

func (h *hostileInst) close() {}

func cyclesOf(res *interp.Result) uint64 {
	if res == nil {
		return 0
	}
	return res.Cycles
}
