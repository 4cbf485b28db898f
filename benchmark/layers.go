package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"gcsafety/internal/artifact"
	"gcsafety/internal/bench"
	"gcsafety/internal/cc/lexer"
	"gcsafety/internal/cc/parser"
	"gcsafety/internal/codegen"
	"gcsafety/internal/gcsafe"
	"gcsafety/internal/interp"
	"gcsafety/internal/liveness"
	"gcsafety/internal/machine"
	"gcsafety/internal/peephole"
	"gcsafety/internal/pipeline"
	"gcsafety/internal/workloads"
)

// layerMetric is one per-layer metric of the traced run.
type layerMetric struct{ name, unit string }

// layer is one module as the traced run reports it, with the prediction
// the benchmark makes for it: which end-to-end metric on which workload a
// change to the layer should move ("metric@workload"), and which
// workloads' end-to-end metrics it should leave alone.
type layer struct {
	name    string
	metrics []layerMetric
	moves   []string
	flat    []string
}

var (
	stageMoves = []string{"op_p50_ms@daemon-cold", "ops_per_s@daemon-cold"}
	stageFlat  = []string{"hostile-gc", "daemon-warm"}
	everywhere = []string{"paper-tables", "hostile-gc", "daemon-cold", "daemon-warm"}
)

var layers = []layer{
	{"lexer", []layerMetric{{"lexer.ms", "ms/build"}, {"lexer.tokens", "count/build"}}, stageMoves, stageFlat},
	{"parser", []layerMetric{{"parser.ms", "ms/build"}}, stageMoves, stageFlat},
	{"typecheck", []layerMetric{{"typecheck.ms", "ms/build"}}, stageMoves, stageFlat},
	{"liveness", []layerMetric{{"liveness.ms", "ms/build"}, {"liveness.units", "count/build"}}, stageMoves, stageFlat},
	{"gcsafe", []layerMetric{{"gcsafe.ms", "ms/build"}, {"gcsafe.inserted", "count/build"}, {"gcsafe.elided", "count/build"}}, stageMoves, stageFlat},
	{"codegen", []layerMetric{{"codegen.ms", "ms/build"}, {"codegen.ir_instrs", "count/build"}}, stageMoves, stageFlat},
	{"optimize", []layerMetric{{"optimize.ms", "ms/build"}, {"optimize.instrs", "count/build"}},
		append([]string{"op_p50_ms@paper-tables"}, stageMoves...), stageFlat},
	{"peephole", []layerMetric{{"peephole.ms", "ms/build"}, {"peephole.rewrites", "count/build"}},
		append([]string{"op_p50_ms@paper-tables"}, stageMoves...), stageFlat},
	{"pipeline", []layerMetric{{"pipeline.computes", "count/op"}, {"pipeline.hit_ratio", "ratio"}},
		[]string{"op_p50_ms@paper-tables"}, []string{"daemon-cold"}},
	{"interp", []layerMetric{{"interp.ms", "ms/run"}, {"interp.sim_instrs", "count/run"}, {"interp.sim_cycles", "count/run"}, {"interp.host_minstrs_per_s", "Minstr/s"}},
		[]string{"op_p50_ms@hostile-gc", "ops_per_s@hostile-gc", "op_p50_ms@paper-tables"}, []string{"daemon-warm"}},
	{"gc", []layerMetric{{"gc.collections", "count/run"}, {"gc.ms", "ms/run"}, {"gc.collect_us", "us"}, {"gc.bytes_freed", "bytes/run"}},
		[]string{"op_p50_ms@hostile-gc"}, []string{"paper-tables", "daemon-cold", "daemon-warm"}},
	{"artifact", []layerMetric{{"artifact.hit_ratio", "ratio"}, {"artifact.evictions", "count/op"}, {"artifact.bytes", "bytes"}},
		[]string{"op_p50_ms@daemon-warm", "ops_per_s@daemon-warm", "op_tail_ms@daemon-cold", "peak_rss_mb@daemon-cold"}, []string{"hostile-gc"}},
	{"server", []layerMetric{{"server.ms", "ms/request"}, {"server.compiles", "count/request"}, {"http.overhead_ms", "ms/request"}, {"http.rtt_ms", "ms/request"}},
		[]string{"op_p50_ms@daemon-warm", "ops_per_s@daemon-warm"}, []string{"paper-tables", "hostile-gc"}},
	{"bench", []layerMetric{{"bench.cells_computed", "count/op"}}, nil, everywhere},
	{"heapdump", []layerMetric{
		{"heapdump.retained_bytes.cordtest", "bytes"}, {"heapdump.retained_bytes.cfrac", "bytes"},
		{"heapdump.retained_bytes.gawk", "bytes"}, {"heapdump.retained_bytes.gs", "bytes"}}, nil, everywhere},
	{"trace", []layerMetric{{"trace.overhead_pct", "%"}}, nil, everywhere},
}

// predictionTable renders the layer table as README.md shows it.
func predictionTable() string {
	var sb strings.Builder
	sb.WriteString("| layer | metrics | should move | should stay flat on |\n|---|---|---|---|\n")
	for _, l := range layers {
		var ms []string
		for _, m := range l.metrics {
			ms = append(ms, "`"+m.name+"`")
		}
		moves := "none: exact counts that guard correctness"
		if l.name == "trace" {
			moves = "none: the cost of tracing itself"
		}
		if len(l.moves) > 0 {
			moves = "`" + strings.Join(l.moves, "`, `") + "`"
		}
		fmt.Fprintf(&sb, "| `%s` | %s | %s | %s |\n", l.name, strings.Join(ms, ", "), moves, strings.Join(l.flat, ", "))
	}
	return sb.String()
}

// probeLayers measures every layer on the workload's own inputs. The
// stage, interp and gc probes replay the workload's cases through each
// layer's public entry points under spans; the pipeline, artifact, bench
// and (for the daemon workloads) server readings are how much the
// workload's counters moved across the traced window of ops operations
// whose mean client latency was rttMs.
func probeLayers(inst instance, tr *tracer, before, after counters, ops int, rttMs float64) (map[string]float64, error) {
	cs, err := inst.cases()
	if err != nil {
		return nil, err
	}
	m := map[string]float64{}
	progs, err := probeStages(cs, tr, m)
	if err != nil {
		return nil, err
	}
	if err := probeTypecheck(cs, m); err != nil {
		return nil, err
	}
	if err := probeInterp(cs, progs, tr, m); err != nil {
		return nil, err
	}
	if err := probeGC(cs, progs, tr, m); err != nil {
		return nil, err
	}

	perOp := func(a, b uint64) float64 { return float64(b-a) / float64(ops) }
	m["pipeline.computes"] = perOp(before.stageComputes, after.stageComputes)
	m["pipeline.hit_ratio"] = ratio(after.stageHits-before.stageHits, after.stageCalls-before.stageCalls)
	m["artifact.hit_ratio"] = ratio(after.cacheHits-before.cacheHits,
		after.cacheHits-before.cacheHits+after.cacheMisses-before.cacheMisses)
	m["artifact.evictions"] = perOp(before.evictions, after.evictions)
	m["artifact.bytes"] = float64(after.cacheBytes)
	m["bench.cells_computed"] = perOp(before.cells, after.cells)
	if after.server {
		n := after.requests - before.requests
		m["server.ms"] = (after.serverMs - before.serverMs) / float64(n)
		m["server.compiles"] = float64(after.compiles-before.compiles) / float64(n)
		m["http.rtt_ms"] = rttMs
	} else if err := probeServer(cs, tr, m); err != nil {
		return nil, err
	}
	m["http.overhead_ms"] = m["http.rtt_ms"] - m["server.ms"]

	for _, w := range workloads.All() {
		b, err := bench.MeasureRetained(w)
		if err != nil {
			return nil, err
		}
		m["heapdump.retained_bytes."+w.Name] = float64(b)
	}
	return m, nil
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// perCall is the mean self time of the spans called name, in ms.
func perCall(tr *tracer, name string, n int) float64 {
	return float64(tr.selfTime(name)) / float64(time.Millisecond) / float64(n)
}

// Probe rounds: one pass over a workload's cases can take a few
// milliseconds, too little to time, so the probes repeat it.
const (
	probeTime      = 500 * time.Millisecond
	maxProbeRounds = 20
)

// rounds runs round once untraced, which warms up and checks every
// output, and then traced until the traced rounds have taken probeTime.
// It returns the number of traced rounds.
func rounds(tr *tracer, round func(*tracer) error) (int, error) {
	if err := round(nil); err != nil {
		return 0, err
	}
	start := time.Now()
	n := 0
	for n == 0 || (n < maxProbeRounds && time.Since(start) < probeTime) {
		if err := round(tr); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// probeStages replays each case's build one stage at a time. Every build
// runs every stage: a build without annotation is annotated in safe mode
// and one without the postprocessor is postprocessed anyway, so each stage
// has a reading on every workload; only the stages the case itself uses
// feed the program it returns.
func probeStages(cs []buildCase, tr *tracer, m map[string]float64) ([]*machine.Program, error) {
	progs := make([]*machine.Program, len(cs))
	var tokens, units, inserted, elided, irInstrs, instrs, rewrites int
	replay := func(tr *tracer) error {
		tokens, units, inserted, elided, irInstrs, instrs, rewrites = 0, 0, 0, 0, 0, 0, 0
		for i := range cs {
			c := &cs[i]
			opts := c.options()
			b := tr.begin("build", 0)
			sp := tr.begin("lexer", b)
			scan := lexer.ScanAll(c.src)
			tr.end(sp)
			sp = tr.begin("parser", b)
			file, err := parser.ParseTokens(c.file, c.src, scan.Replay())
			tr.end(sp)
			if err != nil {
				return fmt.Errorf("%s: %w", c.label, err)
			}
			sp = tr.begin("liveness", b)
			facts := liveness.Analyze(file)
			tr.end(sp)
			var useFacts *liveness.Facts
			if opts.AnnotateOptions.Elide {
				useFacts = facts
			}
			annotated := file.Clone()
			sp = tr.begin("gcsafe", b)
			ann, err := gcsafe.AnnotateWithFacts(annotated, opts.AnnotateOptions, useFacts)
			tr.end(sp)
			if err != nil {
				return fmt.Errorf("%s: %w", c.label, err)
			}
			if opts.Annotate {
				file = annotated
			}
			sp = tr.begin("codegen", b)
			ir, err := codegen.Gen(file, codegen.Options{Optimize: opts.Optimize, Machine: opts.Machine})
			tr.end(sp)
			if err != nil {
				return fmt.Errorf("%s: %w", c.label, err)
			}
			sp = tr.begin("optimize", b)
			prog := codegen.Backend(ir)
			tr.end(sp)
			post := prog.Clone()
			sp = tr.begin("peephole", b)
			st := peephole.Optimize(post, opts.Machine)
			tr.end(sp)
			tr.end(b)

			progs[i] = prog
			if c.post {
				progs[i] = post
			}
			tokens += len(scan.Tokens)
			units += facts.Units()
			inserted += ann.Inserted
			elided += ann.Elided
			for _, fn := range ir.Fns {
				irInstrs += len(fn.Code)
			}
			instrs += prog.Size()
			rewrites += st.Fused + st.CopiesGone + st.Retargeted
		}
		return nil
	}
	r, err := rounds(tr, replay)
	if err != nil {
		return nil, err
	}
	n := len(cs)
	for _, s := range []string{"lexer", "parser", "liveness", "gcsafe", "codegen", "optimize", "peephole"} {
		m[s+".ms"] = perCall(tr, s, r*n)
	}
	per := func(x int) float64 { return float64(x) / float64(n) }
	m["lexer.tokens"] = per(tokens)
	m["liveness.units"] = per(units)
	m["gcsafe.inserted"] = per(inserted)
	m["gcsafe.elided"] = per(elided)
	m["codegen.ir_instrs"] = per(irInstrs)
	m["optimize.instrs"] = per(instrs)
	m["peephole.rewrites"] = per(rewrites)
	return progs, nil
}

// probeTypecheck times the Typecheck stage, which has no entry point of
// its own, through a fresh pipeline runner's stage counters.
func probeTypecheck(cs []buildCase, m map[string]float64) error {
	r := pipeline.NewRunner(artifact.New(0))
	for i := range cs {
		if _, _, err := r.Annotate(context.Background(), cs[i].file, cs[i].src, gcsafe.Options{}); err != nil {
			return fmt.Errorf("%s: %w", cs[i].label, err)
		}
	}
	st := r.StageStats(pipeline.StageTypecheck)
	m["typecheck.ms"] = st.DurationMs / float64(st.Misses)
	return nil
}

// benign is the case's run without an adversarial collection schedule.
func benign(c *buildCase) interp.Options {
	o := c.exec
	o.CollectAtEveryAlloc = false
	o.GCEveryInstrs = 0
	return o
}

// probeInterp runs each case's program under the default collection
// trigger, checking every output.
func probeInterp(cs []buildCase, progs []*machine.Program, tr *tracer, m map[string]float64) error {
	var instrs, cycles uint64
	r, err := rounds(tr, func(tr *tracer) error {
		instrs, cycles = 0, 0
		for i := range cs {
			sp := tr.begin("interp", 0)
			res, err := interp.Run(progs[i], benign(&cs[i]))
			tr.end(sp)
			if err := cs[i].verifyRun(res, err); err != nil {
				return err
			}
			if res != nil {
				instrs += res.Instrs
				cycles += res.Cycles
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	d := tr.selfTime("interp")
	n := float64(len(cs))
	m["interp.ms"] = float64(d) / float64(time.Millisecond) / (float64(r) * n)
	m["interp.sim_instrs"] = float64(instrs) / n
	m["interp.sim_cycles"] = float64(cycles) / n
	m["interp.host_minstrs_per_s"] = float64(instrs) * float64(r) / d.Seconds() / 1e6
	return nil
}

// probeGC prices the collector: each case that must survive an adversarial
// schedule runs under one (its own, or a collection at every allocation)
// and under the default trigger, both with the premature-reclamation
// detector armed, and the difference is collector time. Unannotated
// optimized builds are not GC-safe and concurrent or temporal runs have
// schedules of their own, so they are left out.
func probeGC(cs []buildCase, progs []*machine.Program, tr *tracer, m map[string]float64) error {
	var eligible []int
	for i := range cs {
		c := &cs[i]
		if !(c.annotate == "" && c.optimize) && c.exec.Threads <= 1 && !c.exec.Temporal {
			eligible = append(eligible, i)
		}
	}
	if len(eligible) == 0 {
		return fmt.Errorf("no case qualifies for the collector probe")
	}
	var collections, freed uint64
	r, err := rounds(tr, func(tr *tracer) error {
		collections, freed = 0, 0
		for _, i := range eligible {
			c := &cs[i]
			hostile := c.exec
			if !c.hostile() {
				hostile.CollectAtEveryAlloc = true
			}
			hostile.Validate = true
			base := benign(c)
			base.Validate = true

			sp := tr.begin("gc.hostile", 0)
			res, err := interp.Run(progs[i], hostile)
			tr.end(sp)
			if err := c.verifyRun(res, err); err != nil {
				return fmt.Errorf("adversarial schedule: %w", err)
			}
			if res != nil {
				collections += res.GCStats.Collections
				freed += res.GCStats.BytesFreed
			}
			sp = tr.begin("gc.baseline", 0)
			res, err = interp.Run(progs[i], base)
			tr.end(sp)
			if err := c.verifyRun(res, err); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	hostile := tr.selfTime("gc.hostile")
	base := tr.selfTime("gc.baseline")
	gcTime := float64(hostile-base) / float64(time.Millisecond) / float64(r)
	n := float64(len(eligible))
	m["gc.collections"] = float64(collections) / n
	m["gc.ms"] = gcTime / n
	m["gc.collect_us"] = gcTime * 1000 / float64(collections)
	m["gc.bytes_freed"] = float64(freed) / n
	return nil
}

// probeServer gives workloads whose operations never reach gcsafed a
// server reading: their cases replayed as /v1/run requests, one at a
// time, against a fresh daemon.
func probeServer(cs []buildCase, tr *tracer, m map[string]float64) error {
	d := startDaemon()
	defer d.close()
	var rtt time.Duration
	for i := range cs {
		sp := tr.begin("server.request", 0)
		t0 := time.Now()
		var r runResponse
		err := d.post("/v1/run", runRequest(&cs[i]), &r)
		rtt += time.Since(t0)
		tr.end(sp)
		if err != nil {
			return err
		}
		if err := cs[i].verifyResponse(&r); err != nil {
			return err
		}
	}
	n, err := d.counters()
	if err != nil {
		return err
	}
	m["server.ms"] = n.serverMs / float64(n.requests)
	m["server.compiles"] = float64(n.compiles) / float64(n.requests)
	m["http.rtt_ms"] = float64(rtt) / float64(time.Millisecond) / float64(len(cs))
	return nil
}
