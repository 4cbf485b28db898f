package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite testdata/tables.golden from the current tables")

// TestSpec checks BENCHMARK.json against the benchmark contract and
// against this program: the same workloads and metrics, every layer's
// prediction naming a real end-to-end metric and workload, and README.md
// carrying the same prediction table.
func TestSpec(t *testing.T) {
	spec, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(data, &top); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(sortedKeys(top), " "); got != "command end_to_end paths per_layer run_seconds workloads" {
		t.Errorf("top-level keys %q", got)
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes", len(data))
	}
	if strings.Join(spec.Command, " ") != "bash benchmark/run.sh" || strings.Join(spec.Paths, " ") != "benchmark" {
		t.Errorf("command %q, paths %q", spec.Command, spec.Paths)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d", spec.RunSeconds)
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	workloadSet := map[string]bool{}
	for i, w := range spec.Workloads {
		checkName(w.Name)
		workloadSet[w.Name] = true
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
		if i >= len(suite) || suite[i].name != w.Name {
			t.Errorf("workload %d is %s in BENCHMARK.json but not in the program", i, w.Name)
		}
	}
	if len(spec.Workloads) != len(suite) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(suite))
	}
	e2e := map[string]bool{}
	var largest, setupBound float64
	for i, m := range spec.EndToEnd {
		checkName(m.Name)
		e2e[m.Name] = true
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v is malformed", m)
			continue
		}
		if i >= len(endToEnd) || endToEnd[i].name != m.Name || endToEnd[i].unit != m.Unit {
			t.Errorf("end-to-end metric %d is %s (%s) in BENCHMARK.json but not in the program", i, m.Name, m.Unit)
		}
		largest = math.Max(largest, *m.Bound)
		if m.Name == "setup_s" {
			setupBound = *m.Bound
			if m.Unit != "s" || m.Better != "lower" {
				t.Errorf("setup_s must be in s, lower better")
			}
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Errorf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(spec.EndToEnd), len(endToEnd))
	}
	if setupBound == 0 || setupBound < largest {
		t.Errorf("setup_s needs the largest bound")
	}
	var want []layerMetric
	for _, l := range layers {
		want = append(want, l.metrics...)
		for _, mv := range l.moves {
			metric, wl, ok := strings.Cut(mv, "@")
			if !ok || !e2e[metric] || !workloadSet[wl] {
				t.Errorf("layer %s: prediction %q names no end-to-end metric and workload", l.name, mv)
			}
		}
		for _, wl := range l.flat {
			if !workloadSet[wl] {
				t.Errorf("layer %s: flat on unknown workload %q", l.name, wl)
			}
		}
	}
	for i, m := range spec.PerLayer {
		checkName(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound != nil {
			t.Errorf("per-layer metric %+v is malformed", m)
		}
		if i >= len(want) || want[i].name != m.Name || want[i].unit != m.Unit {
			t.Errorf("per-layer metric %d is %s (%s) in BENCHMARK.json but not in the program", i, m.Name, m.Unit)
		}
	}
	if len(spec.PerLayer) != len(want) {
		t.Errorf("BENCHMARK.json has %d per-layer metrics, the program %d", len(spec.PerLayer), len(want))
	}

	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(readme), predictionTable()) {
		t.Errorf("README.md does not carry the prediction table; it should read:\n%s", predictionTable())
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func TestTablesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every paper table")
	}
	out, err := renderTables(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile("testdata/tables.golden", []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if out != goldenTables {
		t.Fatalf("tables differ from testdata/tables.golden (rerun with -update if intended): %s", firstDiff(out, goldenTables))
	}
	// The retained@exit column (three slowdown tables of four workloads,
	// three hazard workloads) is reported in bytes, and not only zeros.
	cells := regexp.MustCompile(`\b[0-9][0-9,]*B\b`).FindAllString(out, -1)
	if len(cells) != 3*4+3 || strings.Count(strings.Join(cells, " "), "0B") == len(cells) {
		t.Errorf("retained@exit cells %q", cells)
	}
}

// TestWorkloads runs a few operations of every workload with every check.
func TestWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("sets up and runs every workload")
	}
	for _, w := range suite {
		t.Run(w.name, func(t *testing.T) {
			inst, err := w.setup(1)
			if err != nil {
				t.Fatal(err)
			}
			defer inst.close()
			for i := 0; i < 3; i++ {
				for c := 0; c < inst.clients(); c++ {
					if err := inst.op(c, i, nil, 0); err != nil {
						t.Fatal(err)
					}
				}
			}
		})
	}
}

// TestTracedRun checks a traced run's output and that its exact counts
// repeat for the same seed, on the two workloads whose server readings
// come from different places.
func TestTracedRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs traced workloads")
	}
	exact := []string{"gcsafe.inserted", "gcsafe.elided", "interp.sim_cycles", "gc.collections",
		"heapdump.retained_bytes.gs", "lexer.tokens", "optimize.instrs"}
	for _, name := range []string{"hostile-gc", "daemon-cold"} {
		w, _ := workloadByName(name)
		var first map[string]metricValue
		for k := 0; k < 2; k++ {
			res, _, err := measureTraced(w, 3, 2*time.Second, t.TempDir()+"/spans.json")
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("%s: %+v", name, res)
			}
			if first == nil {
				first = res.Metrics
				continue
			}
			for _, m := range exact {
				if res.Metrics[m] != first[m] {
					t.Errorf("%s: %s is %v, then %v", name, m, first[m], res.Metrics[m])
				}
			}
		}
		for _, m := range []string{"lexer.ms", "interp.ms", "gc.ms", "server.ms", "http.rtt_ms"} {
			if first[m].Value <= 0 {
				t.Errorf("%s: %s = %v", name, m, first[m].Value)
			}
		}
	}
}

// TestResultLine checks the output contract: the last line is one JSON
// object with exactly the result keys and every end-to-end metric.
func TestResultLine(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a workload")
	}
	var out, errOut bytes.Buffer
	if code := run([]string{"-workload", "hostile-gc", "-seed", "2", "-seconds", "1"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var raw map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &raw); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(sortedKeys(raw), " "); got != "attempted correct failed metrics" {
		t.Errorf("result keys %q", got)
	}
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Attempted < 1 || len(res.Metrics) != len(endToEnd) {
		t.Errorf("result %+v", res)
	}
	for _, m := range endToEnd {
		if v := res.Metrics[m.name]; v.Value <= 0 || v.Unit != m.unit {
			t.Errorf("%s = %+v", m.name, v)
		}
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-workload", "hostile-gc", "-trace", "2"},
		{"-compare", "a.out"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 || out.Len() != 0 {
			t.Errorf("%q: exit %d, stdout %q", args, code, out.String())
		}
	}
}

func TestSeedDrivesInputs(t *testing.T) {
	periods := map[uint64]bool{}
	for seed := int64(1); seed <= 20; seed++ {
		p := gcPeriod(seed)
		if p < 997 || p > 1999 {
			t.Fatalf("period %d", p)
		}
		for d := uint64(2); d*d <= p; d++ {
			if p%d == 0 {
				t.Fatalf("period %d is not prime", p)
			}
		}
		periods[p] = true
	}
	if len(periods) < 10 {
		t.Errorf("20 seeds drew only %d periods", len(periods))
	}
	if gcPeriod(7) != gcPeriod(7) || mix(7, 1, 2) == mix(8, 1, 2) {
		t.Error("draws must be pure functions of the seed")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles %v %v", q1, q3)
	}
	// statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
	if q1, q3 := quartiles([]float64{1, 2, 3}); q1 != 1 || q3 != 3 {
		t.Errorf("quartiles %v %v", q1, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	a := []float64{100, 101, 99, 100.5, 99.5, 100, 101, 99, 100, 100.2}
	scale := func(f float64) []float64 {
		out := make([]float64, len(a))
		for i, x := range a {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{80, 120, 90, 110, 100, 70, 130, 95, 105, 100}
	for _, tc := range []struct {
		b     []float64
		lower bool
		want  string
	}{
		{scale(1), true, "no worse"},
		{scale(1.05), true, "no worse"},
		{scale(1.2), true, "worse"},
		{scale(0.8), true, "improved"},
		{scale(0.8), false, "worse"},
		{scale(1.2), false, "improved"},
	} {
		if got := compareMetric(a, tc.b, tc.lower, 0.1).verdict; got != tc.want {
			t.Errorf("b = %v (lower better %v): %s, want %s", tc.b[:2], tc.lower, got, tc.want)
		}
	}
	if got := compareMetric(noisy, noisy, true, 0.1).verdict; got != "unresolved" {
		t.Errorf("noisy parent: %s, want unresolved", got)
	}
}
