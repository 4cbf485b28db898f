// Command benchmark is the repository's end-to-end benchmark. It runs one
// workload in this process for a fixed time, checks every output, and
// prints each end-to-end metric by name with its unit and sample count,
// then the run's metadata and its result as one JSON line each. A traced
// run (-trace 1) prints the per-layer metrics instead. README.md describes
// the workloads, metrics and bounds; BENCHMARK.json at the repository root
// is their machine-readable form.
//
// Usage, from the repository root (run.sh builds the program first):
//
//	benchmark -workload NAME -seed N -seconds S [-trace 0|1] [-spans FILE]
//	benchmark -compare A.out... -- B.out...
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"
)

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median.
const setupRepeats = 5

// endToEnd lists the end-to-end metrics in the order they are printed.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: paper-tables, hostile-gc, daemon-cold or daemon-warm")
	seed := fs.Int64("seed", 1, "seed of the workload's inputs")
	seconds := fs.Float64("seconds", 25, "how long to measure")
	trace := fs.Int("trace", 0, "1 runs the workload untraced and then traced and reports the per-layer metrics")
	spans := fs.String("spans", "", "where a traced run writes its spans (default .bench_build/spans-WORKLOAD-SEED.json)")
	rev := fs.String("rev", "unknown", "source revision, recorded in the run's metadata")
	compare := fs.Bool("compare", false, "compare saved runs: -compare A... -- B...")
	spec := fs.String("spec", "BENCHMARK.json", "benchmark definition -compare takes its bounds from")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		return runCompare(*spec, fs.Args(), stdout, stderr)
	}
	w, ok := workloadByName(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "benchmark: need -workload (one of %s), -seconds > 0 and -trace 0 or 1\n", strings.Join(workloadNames(), ", "))
		return 2
	}

	runtime.GOMAXPROCS(2)
	meta := runMeta{
		Workload:       w.name,
		Seed:           *seed,
		Seconds:        *seconds,
		Trace:          *trace == 1,
		TailPercentile: w.tail,
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
		NumCPU:         runtime.NumCPU(),
		GoVersion:      runtime.Version(),
		Rev:            *rev,
	}
	d := time.Duration(*seconds * float64(time.Second))
	var (
		res   result
		lines []string
		err   error
	)
	if meta.Trace {
		path := *spans
		if path == "" {
			path = fmt.Sprintf(".bench_build/spans-%s-%d.json", w.name, *seed)
		}
		res, lines, err = measureTraced(w, *seed, d, path)
	} else {
		res, lines, err = measure(w, *seed, d)
	}
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
		return 1
	}
	if res.firstFailure != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, res.firstFailure)
	}
	for _, l := range lines {
		fmt.Fprintln(stdout, l)
	}
	metaLine, _ := json.Marshal(struct {
		Meta runMeta `json:"meta"`
	}{meta})
	resLine, _ := json.Marshal(res)
	fmt.Fprintf(stdout, "%s\n%s\n", metaLine, resLine)
	return 0
}

func workloadNames() []string {
	var names []string
	for _, w := range suite {
		names = append(names, w.name)
	}
	return names
}

// runMeta describes how a run was made; -compare groups runs by it.
type runMeta struct {
	Workload       string  `json:"workload"`
	Seed           int64   `json:"seed"`
	Seconds        float64 `json:"seconds"`
	Trace          bool    `json:"trace"`
	TailPercentile float64 `json:"tail_percentile"`
	GOMAXPROCS     int     `json:"gomaxprocs"`
	NumCPU         int     `json:"nproc"`
	GoVersion      string  `json:"go_version"`
	Rev            string  `json:"rev"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// firstFailure describes the first failed operation, for stderr.
	firstFailure error
}

// opStats is what a driven window measured.
type opStats struct {
	lat      []float64 // every attempted operation's latency, ms
	failed   int64
	elapsed  time.Duration
	firstErr error
}

// drive runs inst's clients in closed loops for d: each sends its next
// operation only when the previous one has completed.
func drive(inst instance, d time.Duration, tr *tracer) *opStats {
	per := make([]opStats, inst.clients())
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := range per {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			st := &per[c]
			for i := 0; time.Now().Before(deadline); i++ {
				sp := tr.begin("op", 0)
				t0 := time.Now()
				err := inst.op(c, i, tr, sp)
				st.lat = append(st.lat, float64(time.Since(t0))/float64(time.Millisecond))
				tr.end(sp)
				if err != nil {
					st.failed++
					if st.firstErr == nil {
						st.firstErr = fmt.Errorf("client %d operation %d: %w", c, i, err)
					}
				}
			}
		}(c)
	}
	wg.Wait()
	all := &opStats{elapsed: time.Since(start)}
	for _, st := range per {
		all.lat = append(all.lat, st.lat...)
		all.failed += st.failed
		if all.firstErr == nil {
			all.firstErr = st.firstErr
		}
	}
	return all
}

// resultOf turns driven windows into the result line.
func resultOf(metrics map[string]metricValue, windows ...*opStats) result {
	r := result{Metrics: metrics}
	for _, st := range windows {
		r.Attempted += int64(len(st.lat))
		r.Failed += st.failed
		if r.firstFailure == nil {
			r.firstFailure = st.firstErr
		}
	}
	r.Correct = r.Failed == 0 && r.Attempted > 0
	return r
}

// measure is the untraced run: set up setupRepeats times, then drive the
// last set-up for d.
func measure(w workload, seed int64, d time.Duration) (result, []string, error) {
	var setups []float64
	var inst instance
	for k := 0; k < setupRepeats; k++ {
		if inst != nil {
			// Collect the previous set-up so its garbage does not raise the
			// peak RSS.
			inst.close()
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		if inst, err = w.setup(seed); err != nil {
			return result{}, nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer inst.close()
	runtime.GC()
	st := drive(inst, d, nil)
	rss, err := peakRSSMB()
	if err != nil {
		return result{}, nil, err
	}

	n := len(st.lat)
	values := map[string]float64{
		"setup_s":     median(setups),
		"op_p50_ms":   percentile(st.lat, 50),
		"op_tail_ms":  percentile(st.lat, w.tail),
		"ops_per_s":   float64(n) / st.elapsed.Seconds(),
		"peak_rss_mb": rss,
	}
	samples := map[string]string{
		"setup_s":     fmt.Sprintf("n=%d set-ups, median", len(setups)),
		"op_p50_ms":   fmt.Sprintf("n=%d ops", n),
		"op_tail_ms":  fmt.Sprintf("n=%d ops, p%g", n, w.tail),
		"ops_per_s":   fmt.Sprintf("n=%d ops in %.1f s", n, st.elapsed.Seconds()),
		"peak_rss_mb": "VmHWM",
	}
	metrics := map[string]metricValue{}
	var lines []string
	for _, m := range endToEnd {
		metrics[m.name] = metricValue{values[m.name], m.unit}
		lines = append(lines, fmt.Sprintf("%-18s %14.4f %-10s %s", m.name, values[m.name], m.unit, samples[m.name]))
	}
	return resultOf(metrics, st), lines, nil
}

// measureTraced is the traced run: the workload runs d/2 untraced and then,
// set up afresh with the same seed, d/2 traced; the layer probes follow the
// traced half. The spans go to spansPath.
func measureTraced(w workload, seed int64, d time.Duration, spansPath string) (result, []string, error) {
	inst, err := w.setup(seed)
	if err != nil {
		return result{}, nil, fmt.Errorf("set-up: %w", err)
	}
	runtime.GC()
	plain := drive(inst, d/2, nil)
	inst.close()

	tr := newTracer()
	if inst, err = w.setup(seed); err != nil {
		return result{}, nil, fmt.Errorf("set-up: %w", err)
	}
	defer inst.close()
	runtime.GC()
	before, err := inst.counters()
	if err != nil {
		return result{}, nil, err
	}
	traced := drive(inst, d/2, tr)
	after, err := inst.counters()
	if err != nil {
		return result{}, nil, err
	}
	var rtt float64
	for _, l := range traced.lat {
		rtt += l
	}
	values, err := probeLayers(inst, tr, before, after, len(traced.lat), rtt/float64(len(traced.lat)))
	if err != nil {
		return result{}, nil, fmt.Errorf("layer probes: %w", err)
	}
	values["trace.overhead_pct"] = (percentile(traced.lat, 50)/percentile(plain.lat, 50) - 1) * 100
	if err := tr.write(spansPath); err != nil {
		return result{}, nil, err
	}

	metrics := map[string]metricValue{}
	var lines []string
	for _, l := range layers {
		for _, m := range l.metrics {
			v, ok := values[m.name]
			if !ok {
				return result{}, nil, fmt.Errorf("no reading for %s", m.name)
			}
			metrics[m.name] = metricValue{v, m.unit}
			lines = append(lines, fmt.Sprintf("%-34s %16.4f %s", m.name, v, m.unit))
		}
	}
	lines = append(lines, fmt.Sprintf("(untraced %d ops, traced %d ops; spans in %s)", len(plain.lat), len(traced.lat), spansPath))
	return resultOf(metrics, plain, traced), lines, nil
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("peak RSS: no VmHWM line in /proc/self/status")
}
