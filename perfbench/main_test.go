package main

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"
)

// tiny shrinks every workload's iteration count for the tests; meshes,
// thread counts and grid shapes stay as benchmarked.
const tiny = 0.02

func tinyJob(t *testing.T, name string) job {
	t.Helper()
	w, err := lookupWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	j, err := w.build(7, tiny)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// lastResult parses the report's last line.
func lastResult(t *testing.T, out string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, out)
	}
	return r
}

func TestTracedDigestMatchesUntraced(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			j := tinyJob(t, w.name)
			plain := runPass(j, nil)
			traced := runPass(j, &ledger{})
			for _, p := range []*pass{plain, traced} {
				if p.failed != 0 || p.attempted == 0 {
					t.Fatalf("pass failed %d of %d: %v", p.failed, p.attempted, p.errs)
				}
			}
			if plain.digest != traced.digest {
				t.Fatalf("traced sim_digest %s, untraced %s", traced.digest, plain.digest)
			}
			if len(traced.led.probes) == 0 {
				t.Fatal("traced pass recorded no runs")
			}
		})
	}
}

// TestMetricsMatchDefinition runs each mode once and checks that the
// result carries exactly the metrics BENCHMARK.json declares, each with
// its declared unit, and that the tables here agree with that file.
func TestMetricsMatchDefinition(t *testing.T) {
	def, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(def.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the command %d", len(def.Workloads), len(workloads))
	}
	for i, w := range def.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, command %q", i, w.Name, workloads[i].name)
		}
	}
	for _, trace := range []bool{false, true} {
		want, declared := endToEnd, def.EndToEnd
		if trace {
			want, declared = perLayer, def.PerLayer
		}
		var got []metricDef
		for _, m := range declared {
			got = append(got, metricDef{m.Name, m.Unit, m.Better})
		}
		if len(got) != len(want) {
			t.Fatalf("trace %v: BENCHMARK.json declares %d metrics, the command %d", trace, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("trace %v metric %d: BENCHMARK.json %+v, command %+v", trace, i, got[i], want[i])
			}
		}

		var out bytes.Buffer
		if code := execute("paper-suite", tinyJob(t, "paper-suite"), runOpts{seed: 7, trace: trace}, &out); code != 0 {
			t.Fatalf("trace %v: exit %d\n%s", trace, code, out.String())
		}
		r := lastResult(t, out.String())
		if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
			t.Fatalf("trace %v: correct %v, %d of %d failed", trace, r.Correct, r.Failed, r.Attempted)
		}
		if len(r.Metrics) != len(want) {
			t.Errorf("trace %v: %d metrics emitted, %d declared", trace, len(r.Metrics), len(want))
		}
		for _, d := range want {
			m, ok := r.Metrics[d.name]
			switch {
			case !ok:
				t.Errorf("trace %v: %s not emitted", trace, d.name)
			case m.Unit != d.unit:
				t.Errorf("trace %v: %s unit %q, want %q", trace, d.name, m.Unit, d.unit)
			case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
				t.Errorf("trace %v: %s = %v", trace, d.name, m.Value)
			case !trace && m.Value <= 0:
				t.Errorf("%s = %v, end-to-end metrics are never 0", d.name, m.Value)
			}
		}
	}
}

func TestInvalidCellFails(t *testing.T) {
	j := tinyJob(t, "levels-sweep")
	j.cells[5].Protocol = "no-such-protocol"
	var out bytes.Buffer
	code := execute("levels-sweep", j, runOpts{seed: 7}, &out)
	if code == 0 {
		t.Fatalf("exit 0 with an invalid cell\n%s", out.String())
	}
	r := lastResult(t, out.String())
	if r.Correct || r.Failed == 0 {
		t.Fatalf("correct %v, failed %d: the invalid cell was not counted", r.Correct, r.Failed)
	}
	if !strings.Contains(out.String(), "no-such-protocol") {
		t.Errorf("report does not name the failure:\n%s", out.String())
	}
}

func TestUnknownWorkload(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := cli([]string{"--workload", "nope"}, &out, &errOut); code == 0 || out.Len() != 0 {
		t.Fatalf("exit %d, stdout %q", code, out.String())
	}
}

// TestQuartiles pins the method to Python's statistics.quantiles(n=4).
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		in        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
	} {
		q1, m, q3 := quartiles(c.in)
		if q1 != c.q1 || m != c.m || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.in, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	parent := []float64{10, 10.1, 9.9, 10.05, 9.95, 10, 10.1, 9.9, 10.02, 9.98}
	pairs := func(change []float64) [][2]float64 {
		var ps [][2]float64
		for i := range change {
			ps = append(ps, [2]float64{parent[i], change[i]})
		}
		return ps
	}
	scaled := func(f float64) []float64 {
		var out []float64
		for _, v := range parent {
			out = append(out, v*f)
		}
		return out
	}
	for _, c := range []struct {
		change []float64
		bound  float64
		want   string
	}{
		{scaled(0.8), 0.1, "gain"},
		{scaled(1.02), 0.1, "no worse"},
		{scaled(1.3), 0.1, "worse"},
		{scaled(1.02), 0.001, "unresolved"},
		{scaled(1.3), 0, "worse"},
		{scaled(1.0), 0, "unresolved"},
	} {
		_, got := verdict(verdictInputs{a: parent, b: c.change, pairs: pairs(c.change), bound: c.bound})
		if got != c.want {
			t.Errorf("change x%.2f bound %v: verdict %q, want %q", c.change[0]/parent[0], c.bound, got, c.want)
		}
	}
}

// TestRescale checks that time metrics are host time times the pass's
// host speed, and that counts and memory are not rescaled.
func TestRescale(t *testing.T) {
	half := 2 * refNominal.Seconds() // the host ran the loop at half speed
	p := &pass{
		wall: 4 * time.Second, setup: time.Second, run: 2 * time.Second,
		cycles: 1000, delivered: 8, allocBytes: 3e6,
		refs: []float64{half, half / 2, half, 4 * half},
	}
	if got := p.speed(); got != 0.5 {
		t.Fatalf("speed %v, want 0.5", got)
	}
	m := endToEndValues([]*pass{p})
	for name, want := range map[string]float64{
		"wall_s": 2, "setup_s": 0.5, "sim_cycles_per_s": 1000, "cells_per_s": 4, "alloc_mb": 3,
	} {
		if got := m[name][0]; got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}
