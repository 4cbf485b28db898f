package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

// benchSpec is BENCHMARK.json.
type benchSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []specWorkload `json:"workloads"`
	EndToEnd   []specMetric   `json:"end_to_end"`
	PerLayer   []specMetric   `json:"per_layer"`
}

type specWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readSpec(path string) (benchSpec, error) {
	var s benchSpec
	data, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// savedRun is one run's saved standard output: its metadata and result
// lines.
type savedRun struct {
	meta runMeta
	res  result
}

func readRun(path string) (savedRun, error) {
	var r savedRun
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r.res); err != nil {
		return r, fmt.Errorf("%s: last line is not a result: %w", path, err)
	}
	for _, l := range lines {
		if strings.HasPrefix(l, `{"meta":`) {
			var m struct {
				Meta runMeta `json:"meta"`
			}
			if err := json.Unmarshal([]byte(l), &m); err != nil {
				return r, fmt.Errorf("%s: %w", path, err)
			}
			r.meta = m.Meta
			return r, nil
		}
	}
	return r, fmt.Errorf("%s: no metadata line", path)
}

// comparison is one (workload, metric) row of -compare.
type comparison struct {
	medA, q1A, q3A float64
	medB, q1B, q3B float64
	won, pairs     int
	verdict        string
}

// compareMetric applies the benchmark's rule to parent runs a and change
// runs b, paired in the order given (the runs alternate sides):
//
//   - improved: the change wins at least nine tenths of the pairs and the
//     medians differ, in its favour, by more than the parent's quartile
//     spread;
//   - unresolved: otherwise, when the parent's own spread is wider than the
//     bound and not every change run beats every parent run;
//   - worse: the change's median is worse than the parent's by more than
//     the bound;
//   - no worse: everything else.
func compareMetric(a, b []float64, lowerBetter bool, bound float64) comparison {
	better := func(x, y float64) bool {
		if lowerBetter {
			return x < y
		}
		return x > y
	}
	c := comparison{medA: median(a), medB: median(b)}
	c.q1A, c.q3A = quartiles(a)
	c.q1B, c.q3B = quartiles(b)
	c.pairs = min(len(a), len(b))
	for i := 0; i < c.pairs; i++ {
		if better(b[i], a[i]) {
			c.won++
		}
	}
	allBetter := true
	for _, x := range b {
		for _, y := range a {
			allBetter = allBetter && better(x, y)
		}
	}
	spreadA := c.q3A - c.q1A
	worsening := (c.medB - c.medA) / c.medA
	if !lowerBetter {
		worsening = -worsening
	}
	switch {
	case c.won*10 >= 9*c.pairs && better(c.medB, c.medA) && math.Abs(c.medB-c.medA) > spreadA:
		c.verdict = "improved"
	case spreadA/c.medA > bound && !allBetter:
		c.verdict = "unresolved"
	case worsening > bound:
		c.verdict = "worse"
	default:
		c.verdict = "no worse"
	}
	return c
}

// runCompare implements -compare A... -- B...: A are the parent's runs,
// B the change's.
func runCompare(specPath string, args []string, stdout, stderr io.Writer) int {
	sep := -1
	for i, a := range args {
		if a == "--" {
			sep = i
		}
	}
	if sep <= 0 || sep == len(args)-1 {
		fmt.Fprintln(stderr, "benchmark: usage: -compare A.out... -- B.out...")
		return 2
	}
	spec, err := readSpec(specPath)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	read := func(paths []string) ([]savedRun, error) {
		var runs []savedRun
		for _, p := range paths {
			r, err := readRun(p)
			if err != nil {
				return nil, err
			}
			if !r.meta.Trace {
				runs = append(runs, r)
			}
		}
		return runs, nil
	}
	a, err := read(args[:sep])
	var b []savedRun
	if err == nil {
		b, err = read(args[sep+1:])
	}
	var worse bool
	if err == nil {
		worse, err = compareRuns(spec, a, b, stdout)
	}
	switch {
	case err != nil:
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	case worse:
		return 1
	}
	return 0
}

// compareRuns prints one row per (workload, end-to-end metric) and one for
// the share of failed operations, which may not rise. It reports whether
// any row is worse.
func compareRuns(spec benchSpec, a, b []savedRun, w io.Writer) (bool, error) {
	anyWorse := false
	fmt.Fprintf(w, "%-13s %-18s %-30s %-30s %-6s %s\n", "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "won", "verdict")
	for _, wl := range spec.Workloads {
		as, bs := runsOf(a, wl.Name), runsOf(b, wl.Name)
		if len(as) == 0 && len(bs) == 0 {
			continue
		}
		if len(as) == 0 || len(bs) == 0 {
			return false, fmt.Errorf("workload %s has runs on one side only", wl.Name)
		}
		for _, m := range spec.EndToEnd {
			if m.Bound == nil {
				return false, fmt.Errorf("metric %s has no bound", m.Name)
			}
			c := compareMetric(values(as, m.Name), values(bs, m.Name), m.Better == "lower", *m.Bound)
			anyWorse = anyWorse || c.verdict == "worse"
			fmt.Fprintf(w, "%-13s %-18s %-30s %-30s %-6s %s\n", wl.Name, m.Name,
				fmt.Sprintf("%.4g [%.4g, %.4g]", c.medA, c.q1A, c.q3A),
				fmt.Sprintf("%.4g [%.4g, %.4g]", c.medB, c.q1B, c.q3B),
				fmt.Sprintf("%d/%d", c.won, c.pairs), c.verdict)
		}
		fa, fb := failRatio(as), failRatio(bs)
		verdict := "no worse"
		if fb > fa {
			verdict = "worse"
			anyWorse = true
		}
		fmt.Fprintf(w, "%-13s %-18s %-30s %-30s %-6s %s\n", wl.Name, "fail_ratio",
			fmt.Sprintf("%.4g", fa), fmt.Sprintf("%.4g", fb), "", verdict)
	}
	return anyWorse, nil
}

func runsOf(runs []savedRun, workload string) []savedRun {
	var out []savedRun
	for _, r := range runs {
		if r.meta.Workload == workload {
			out = append(out, r)
		}
	}
	return out
}

func values(runs []savedRun, metric string) []float64 {
	var out []float64
	for _, r := range runs {
		out = append(out, r.res.Metrics[metric].Value)
	}
	return out
}

func failRatio(runs []savedRun) float64 {
	var failed, attempted int64
	for _, r := range runs {
		failed += r.res.Failed
		attempted += r.res.Attempted
	}
	return float64(failed) / float64(attempted)
}
