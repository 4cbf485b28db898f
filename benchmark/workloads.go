package main

import (
	"errors"
	"fmt"

	"gcsafety/internal/gcsafe"
	"gcsafety/internal/interp"
	"gcsafety/internal/machine"
	"gcsafety/internal/pipeline"
)

// workload is one benchmark workload: a set-up and a timed operation.
// BENCHMARK.json and README.md record why each was chosen.
type workload struct {
	name string
	// tail is the percentile op_tail_ms reports: the highest one with at
	// least ten samples beyond it in a run of the default length.
	tail  float64
	setup func(seed int64) (instance, error)
}

var suite = []workload{
	{"paper-tables", 75, setupTables},
	{"hostile-gc", 75, setupHostile},
	{"daemon-cold", 99, func(seed int64) (instance, error) { return setupDaemon(seed, false) }},
	{"daemon-warm", 99, func(seed int64) (instance, error) { return setupDaemon(seed, true) }},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range suite {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// instance is one set-up workload, ready to be timed.
type instance interface {
	// clients is how many closed-loop clients drive the workload at once.
	clients() int
	// op performs client c's i-th operation and checks its outputs.
	// parent is the operation's span, under which the workload records its
	// own layer calls.
	op(c, i int, tr *tracer, parent int) error
	// counters reads the layer counters accumulated so far.
	counters() (counters, error)
	// cases lists the builds and runs the layer probes replay: every
	// build of one operation, or those of the run's first operations.
	cases() ([]buildCase, error)
	close()
}

// counters are cumulative layer counts; a traced run reports how much
// they moved across its measured window.
type counters struct {
	stageCalls, stageHits, stageComputes uint64
	cacheHits, cacheMisses, evictions    uint64
	cacheBytes                           int64 // resident when read
	cells                                uint64
	// server is false for workloads whose operations never reach gcsafed.
	server   bool
	requests uint64
	serverMs float64
	compiles uint64
}

// buildCase is one build and run a workload performs, in the form the
// layer probes replay it.
type buildCase struct {
	// label names the case in error messages; file is the translation
	// unit's name.
	label, file, src string
	// annotate is the gcsafed wire name of the annotation mode: "" (none),
	// "safe", "checked" or "temporal".
	annotate              string
	optimize, post, elide bool
	// exec is the run as the workload performs it; exec.Config is the
	// build's machine.
	exec interp.Options
	want string
	// wantCheck marks runs that must end in a failed pointer or temporal
	// check (the gawk checked build, the hazard workloads' temporal cells).
	wantCheck bool
}

func (c *buildCase) options() pipeline.Options {
	o := pipeline.Options{Optimize: c.optimize, Post: c.post, Machine: c.exec.Config}
	o.AnnotateOptions.Elide = c.elide
	switch c.annotate {
	case "safe":
		o.Annotate = true
	case "checked":
		o.Annotate = true
		o.AnnotateOptions.Mode = gcsafe.ModeChecked
	case "temporal":
		o.Annotate = true
		o.AnnotateOptions.Mode = gcsafe.ModeTemporal
	}
	return o
}

// hostile reports whether the case's own run already uses an adversarial
// collection schedule.
func (c *buildCase) hostile() bool {
	return c.exec.CollectAtEveryAlloc || c.exec.GCEveryInstrs > 0
}

// verify checks one run's outcome: the expected output, or the expected
// failed check.
func (c *buildCase) verify(output string, err error, checkFailed bool) error {
	if c.wantCheck {
		if !checkFailed {
			return fmt.Errorf("%s: want a failed check, got output %q (error %v)", c.label, clip(output), err)
		}
		return nil
	}
	if err != nil {
		return fmt.Errorf("%s: %w", c.label, err)
	}
	if output != c.want {
		return fmt.Errorf("%s: output %q, want %q", c.label, clip(output), clip(c.want))
	}
	return nil
}

// verifyRun checks an in-process run.
func (c *buildCase) verifyRun(res *interp.Result, err error) error {
	var ce *interp.CheckError
	out := ""
	if res != nil {
		out = res.Output
	}
	return c.verify(out, err, errors.As(err, &ce))
}

// wireMachine is gcsafed's name for a machine configuration.
func wireMachine(cfg machine.Config) string {
	switch cfg.Name {
	case machine.SPARCstation2().Name:
		return "ss2"
	case machine.Pentium90().Name:
		return "p90"
	}
	return "ss10"
}

func clip(s string) string {
	if len(s) > 80 {
		return s[:80] + "..."
	}
	return s
}
