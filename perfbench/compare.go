package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// spec is the part of BENCHMARK.json this command reads: the workload
// names and each metric's unit, direction and (end-to-end only) bound.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// sample is one saved benchmark run.
type sample struct {
	meta    meta
	metrics map[string]float64
}

// compareCmd reads two directories of saved benchmark outputs (the
// parent's and the change's standard output, one run per file) and
// prints, for each workload and metric, both sides' medians and
// quartiles, the share of seed-matched pairs the change won, and a
// verdict.
func compareCmd(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition giving each metric's direction and bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: perfbench compare [-spec BENCHMARK.json] PARENT_DIR CHANGE_DIR")
		return 2
	}
	sp, err := readSpec(*specPath)
	if err == nil {
		var a, b []sample
		if a, err = readSamples(fs.Arg(0)); err == nil {
			if b, err = readSamples(fs.Arg(1)); err == nil {
				compare(stdout, sp, a, b)
				return 0
			}
		}
	}
	fmt.Fprintln(stderr, "perfbench compare:", err)
	return 1
}

func readSpec(path string) (spec, error) {
	var sp spec
	b, err := os.ReadFile(path)
	if err != nil {
		return sp, err
	}
	if err := json.Unmarshal(b, &sp); err != nil {
		return sp, fmt.Errorf("%s: %w", path, err)
	}
	return sp, nil
}

// readSamples parses every regular file in dir as one run's output: a
// meta line and, as the last line, the result object.
func readSamples(dir string) ([]sample, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	var out []sample
	for _, path := range paths {
		if fi, err := os.Stat(path); err != nil || !fi.Mode().IsRegular() {
			continue
		}
		s, err := readSample(path)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no benchmark outputs", dir)
	}
	return out, nil
}

func readSample(path string) (sample, error) {
	f, err := os.Open(path)
	if err != nil {
		return sample{}, err
	}
	defer f.Close()
	var s sample
	var last string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		last = line
		if strings.HasPrefix(line, `{"meta":`) {
			var m struct {
				Meta meta `json:"meta"`
			}
			if err := json.Unmarshal([]byte(line), &m); err != nil {
				return sample{}, fmt.Errorf("%s: meta line: %w", path, err)
			}
			s.meta = m.Meta
		}
	}
	if err := sc.Err(); err != nil {
		return sample{}, fmt.Errorf("%s: %w", path, err)
	}
	var r result
	if err := json.Unmarshal([]byte(last), &r); err != nil {
		return sample{}, fmt.Errorf("%s: last line is not a result: %w", path, err)
	}
	if s.meta.Workload == "" {
		return sample{}, fmt.Errorf("%s: no meta line", path)
	}
	s.metrics = map[string]float64{}
	for k, v := range r.Metrics {
		s.metrics[k] = v.Value
	}
	return s, nil
}

// verdictInputs is one workload x metric comparison.
type verdictInputs struct {
	a, b   []float64
	pairs  [][2]float64 // seed-matched (parent, change) values
	higher bool
	bound  float64 // 0 = none (per-layer metrics)
}

// verdict applies the acceptance rule: a gain needs the change to win
// at least nine tenths of the pairs and the medians to differ by more
// than the parent's quartile spread; otherwise, where a bound exists,
// the change is "no worse" if its median is within the bound of the
// parent's, "worse" if beyond it, and "unresolved" when the parent's own
// spread exceeds the bound (unless every change run beats every parent
// run).
func verdict(v verdictInputs) (won float64, verdict string) {
	better := func(x, y float64) bool { // x better than y
		if v.higher {
			return x > y
		}
		return x < y
	}
	wins, losses := 0, 0
	for _, p := range v.pairs {
		switch {
		case better(p[1], p[0]):
			wins++
		case better(p[0], p[1]):
			losses++
		}
	}
	n := len(v.pairs)
	won = ratio(float64(wins), float64(n))
	aq1, am, aq3 := quartiles(v.a)
	_, bm, _ := quartiles(v.b)
	spread := aq3 - aq1
	gainBy := bm - am
	if !v.higher {
		gainBy = -gainBy
	}
	switch {
	case n > 0 && 10*wins >= 9*n && gainBy > spread:
		return won, "gain"
	case v.bound == 0:
		if n > 0 && 10*losses >= 9*n && -gainBy > spread {
			return won, "worse"
		}
		return won, "unresolved"
	case allBetter(v.b, v.a, better):
		return won, "no worse"
	case am != 0 && spread/math.Abs(am) > v.bound:
		return won, "unresolved"
	case am != 0 && -gainBy/math.Abs(am) > v.bound:
		return won, "worse"
	}
	return won, "no worse"
}

// allBetter reports whether every value of xs is better than every
// value of ys.
func allBetter(xs, ys []float64, better func(x, y float64) bool) bool {
	if len(xs) == 0 || len(ys) == 0 {
		return false
	}
	for _, x := range xs {
		for _, y := range ys {
			if !better(x, y) {
				return false
			}
		}
	}
	return true
}

func compare(w io.Writer, sp spec, a, b []sample) {
	type def struct {
		name   string
		higher bool
		bound  float64
	}
	var defs []def
	for _, m := range sp.EndToEnd {
		defs = append(defs, def{m.Name, m.Better == "higher", m.Bound})
	}
	for _, m := range sp.PerLayer {
		defs = append(defs, def{m.Name, m.Better == "higher", 0})
	}
	workloads := map[string]bool{}
	for _, s := range append(append([]sample(nil), a...), b...) {
		workloads[s.meta.Workload] = true
	}
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)

	fmt.Fprintf(w, "%-13s %-26s %-34s %-34s %6s  %s\n", "workload", "metric", "parent median [q1 q3] n", "change median [q1 q3] n", "won", "verdict")
	for _, wl := range names {
		for _, d := range defs {
			v := verdictInputs{higher: d.higher, bound: d.bound}
			bySeed := map[uint64][]float64{}
			for _, s := range a {
				if x, ok := s.metrics[d.name]; ok && s.meta.Workload == wl {
					v.a = append(v.a, x)
					bySeed[s.meta.Seed] = append(bySeed[s.meta.Seed], x)
				}
			}
			for _, s := range b {
				if x, ok := s.metrics[d.name]; ok && s.meta.Workload == wl {
					v.b = append(v.b, x)
					if q := bySeed[s.meta.Seed]; len(q) > 0 {
						v.pairs = append(v.pairs, [2]float64{q[0], x})
						bySeed[s.meta.Seed] = q[1:]
					}
				}
			}
			if len(v.a) == 0 && len(v.b) == 0 {
				continue
			}
			won, vd := verdict(v)
			fmt.Fprintf(w, "%-13s %-26s %-34s %-34s %5.0f%%  %s\n", wl, d.name, summary(v.a), summary(v.b), 100*won, vd)
		}
	}
}

func summary(vs []float64) string {
	q1, med, q3 := quartiles(vs)
	return fmt.Sprintf("%.5g [%.5g %.5g] %d", med, q1, q3, len(vs))
}
