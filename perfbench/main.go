// Command perfbench is the repository's benchmark: it runs one named
// workload of the OCOR platform for a fixed host time, checks that every
// simulated output is correct, and prints the end-to-end metrics (or,
// with -trace 1, the per-layer metrics) by name with their units. The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 156, "failed": 0, "metrics": {"wall_s": {"value": 1.21, "unit": "s"}, ...}}
//
// Usage (from the repository root; run.sh builds the command first):
//
//	bash perfbench/run.sh --workload paper-suite --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh compare parent/ change/
//
// See perfbench/README.md for the workloads, the metrics and how each
// layer metric is expected to move the end-to-end ones.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"
)

// metricDef names one reported metric. The same names, units and
// directions are declared in BENCHMARK.json (a test keeps them equal).
type metricDef struct {
	name, unit, better string
}

var endToEnd = []metricDef{
	{"wall_s", "s", "lower"},
	{"setup_s", "s", "lower"},
	{"sim_cycles_per_s", "cycles/s", "higher"},
	{"cells_per_s", "cells/s", "higher"},
	{"alloc_mb", "MB", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

var perLayer = []metricDef{
	{"sim.self_s", "s", "lower"},
	{"sim.ticked_cycles", "cycles", "lower"},
	{"sim.skipped_cycles", "cycles", "higher"},
	{"noc.self_s", "s", "lower"},
	{"noc.ticks", "count", "lower"},
	{"noc.rr_ns_per_tick", "ns/tick", "lower"},
	{"noc.prio_ns_per_tick", "ns/tick", "lower"},
	{"noc.packets", "count", "lower"},
	{"noc.flit_hops", "count", "lower"},
	{"noc.sa_conflicts", "count", "lower"},
	{"noc.ns_per_flit_hop", "ns/hop", "lower"},
	{"noc.lock_latency_cycles", "cycles", "lower"},
	{"noc.data_latency_cycles", "cycles", "lower"},
	{"mem.self_s", "s", "lower"},
	{"mem.deliveries", "count", "lower"},
	{"mem.ns_per_delivery", "ns/msg", "lower"},
	{"mem.l1_misses", "count", "lower"},
	{"mem.dram_fetches", "count", "lower"},
	{"kernel.self_s", "s", "lower"},
	{"kernel.deliveries", "count", "lower"},
	{"kernel.acquisitions", "count", "higher"},
	{"kernel.spin_frac", "ratio", "higher"},
	{"kernel.sleeps", "count", "lower"},
	{"kernel.coh_cycles", "cycles", "lower"},
	{"cpu.self_s", "s", "lower"},
	{"cpu.ticks", "count", "lower"},
	{"repro.new_s", "s", "lower"},
	{"repro.run_s", "s", "lower"},
	{"checkpoint.prefix_s", "s", "lower"},
	{"checkpoint.restore_s", "s", "lower"},
	{"checkpoint.snapshot_bytes", "B", "lower"},
	{"checkpoint.prefix_cycles", "cycles", "higher"},
	{"experiments.self_s", "s", "lower"},
	{"experiments.unique_frac", "ratio", "lower"},
	{"experiments.forked_frac", "ratio", "higher"},
	{"trace.overhead_frac", "ratio", "lower"},
	{"host.speed", "ratio", "higher"},
}

// hostDefs are the unscaled figures the readable report adds.
var hostDefs = []metricDef{
	{"host.wall_s", "s", "lower"},
	{"host.setup_s", "s", "lower"},
	{"host.speed", "ratio", "higher"},
}

// minPasses is the fewest measured passes a run takes, however short
// its time budget.
const minPasses = 3

func main() { os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr)) }

func cli(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareCmd(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: paper-suite, levels-sweep or giant-mesh")
	seed := fs.Uint64("seed", 1, "workload seed: generates the simulated programs and grid cells")
	seconds := fs.Float64("seconds", 10, "host seconds to measure for")
	trace := fs.Int("trace", 0, "1 = traced run: alternate untraced and traced passes, print the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := lookupWorkload(*name)
	if err == nil && *trace != 0 && *trace != 1 {
		err = fmt.Errorf("-trace must be 0 or 1, not %d", *trace)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	j, err := w.build(*seed, 1)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	return execute(w.name, j, runOpts{seed: *seed, seconds: *seconds, trace: *trace == 1}, stdout)
}

type runOpts struct {
	seed    uint64
	seconds float64
	trace   bool
}

// outcome is what one benchmark invocation measured.
type outcome struct {
	meta      meta
	attempted int
	failed    int
	errs      []string
	// untraced and traced hold the measured passes (the warm-up pass is
	// checked but not measured).
	untraced, traced []*pass
}

type meta struct {
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Trace      bool    `json:"trace"`
	Seconds    float64 `json:"seconds"`
	Passes     int     `json:"passes"`
	SimDigest  string  `json:"sim_digest"`
	FailFrac   float64 `json:"fail_frac"`
	Go         string  `json:"go"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	Revision   string  `json:"revision"`
}

// execute runs j for about o.seconds after one warm-up pass and prints
// the report; it returns the process exit code (1 when any output failed
// its check).
func execute(name string, j job, o runOpts, stdout io.Writer) int {
	out := measure(name, j, o)
	report(stdout, out)
	if out.failed > 0 {
		return 1
	}
	return 0
}

func measure(name string, j job, o runOpts) outcome {
	out := outcome{meta: meta{
		Workload: name, Seed: o.seed, Trace: o.trace, Seconds: o.seconds,
		Go: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(), Revision: revision(),
	}}
	warm := runPass(j, nil)
	out.meta.SimDigest = warm.digest
	account := func(p *pass) {
		out.attempted += p.attempted
		out.failed += p.failed
		out.errs = append(out.errs, p.errs...)
		if p.failed == 0 && p.digest != warm.digest {
			// Every pass of one seed must simulate identically, traced or
			// not; a digest that moved is a wrong output.
			out.failed += p.attempted
			out.errs = append(out.errs, fmt.Sprintf("sim_digest %s differs from the warm-up pass's %s (traced %v)", p.digest, warm.digest, p.led != nil))
		}
	}
	account(warm)
	// Passes repeat while another one of typical length still ends
	// within the time budget.
	start := time.Now()
	var rounds []float64
	for len(out.untraced) < minPasses || time.Since(start).Seconds()+median(rounds) <= o.seconds {
		t := time.Now()
		runtime.GC()
		p := runPass(j, nil)
		account(p)
		out.untraced = append(out.untraced, p)
		if o.trace {
			runtime.GC()
			p := runPass(j, &ledger{})
			account(p)
			out.traced = append(out.traced, p)
		}
		rounds = append(rounds, time.Since(t).Seconds())
	}
	out.meta.Passes = len(out.untraced)
	out.meta.FailFrac = ratio(float64(out.failed), float64(out.attempted))
	return out
}

// endToEndValues returns each end-to-end metric's value on every
// untraced pass, time metrics rescaled by the pass's host speed (see
// ref.go), plus the process's peak resident memory.
func endToEndValues(ps []*pass) map[string][]float64 {
	m := map[string][]float64{}
	for _, p := range ps {
		k := p.speed()
		m["wall_s"] = append(m["wall_s"], p.wall.Seconds()*k)
		m["setup_s"] = append(m["setup_s"], p.setup.Seconds()*k)
		m["sim_cycles_per_s"] = append(m["sim_cycles_per_s"], ratio(float64(p.cycles), p.run.Seconds()*k))
		span := p.wall
		if p.grid > 0 {
			span = p.grid
		}
		m["cells_per_s"] = append(m["cells_per_s"], ratio(float64(p.delivered), span.Seconds()*k))
		m["alloc_mb"] = append(m["alloc_mb"], float64(p.allocBytes)/1e6)
	}
	m["peak_rss_mb"] = []float64{peakRSSMB()}
	return m
}

// hostValues returns the unscaled host seconds and the host speed of
// every pass, for the readable report.
func hostValues(ps []*pass) map[string][]float64 {
	m := map[string][]float64{}
	for _, p := range ps {
		m["host.wall_s"] = append(m["host.wall_s"], p.wall.Seconds())
		m["host.setup_s"] = append(m["host.setup_s"], p.setup.Seconds())
		m["host.speed"] = append(m["host.speed"], p.speed())
	}
	return m
}

// timeUnits are the per-layer units that measure host time; those
// metrics are rescaled by the pass's host speed like the end-to-end ones.
var timeUnits = map[string]bool{"s": true, "ns/tick": true, "ns/hop": true, "ns/msg": true}

func layerValues(ps []*pass) map[string][]float64 {
	units := map[string]string{}
	for _, d := range perLayer {
		units[d.name] = d.unit
	}
	m := map[string][]float64{}
	for _, p := range ps {
		k := p.speed()
		for name, v := range p.led.layers() {
			if timeUnits[units[name]] {
				v *= k
			}
			m[name] = append(m[name], v)
		}
		m["host.speed"] = append(m["host.speed"], k)
	}
	return m
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report prints the human-readable summary, then the meta line, then the
// result object as the last line.
func report(w io.Writer, out outcome) {
	mt := out.meta
	fmt.Fprintf(w, "workload %s  seed %d  trace %v  passes %d (+1 warm-up)  %s GOMAXPROCS=%d nproc=%d rev %s\n",
		mt.Workload, mt.Seed, mt.Trace, mt.Passes, mt.Go, mt.GOMAXPROCS, mt.NProc, mt.Revision)
	fmt.Fprintf(w, "sim_digest %s\n", mt.SimDigest)
	fmt.Fprintf(w, "fail_frac %g (%d of %d runs or cells)\n", mt.FailFrac, out.failed, out.attempted)
	for i, e := range out.errs {
		if i == 10 {
			fmt.Fprintf(w, "  ... %d more failures\n", len(out.errs)-i)
			break
		}
		fmt.Fprintf(w, "  FAIL %s\n", e)
	}

	e2e := endToEndValues(out.untraced)
	printTable(w, "end-to-end (untraced passes, time rescaled to nominal host speed)", endToEnd, e2e)
	printTable(w, "unscaled host time (untraced passes)", hostDefs, hostValues(out.untraced))
	res := result{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metricValue{}}
	if mt.Trace {
		lv := layerValues(out.traced)
		var tw []float64
		for _, p := range out.traced {
			tw = append(tw, p.wall.Seconds()*p.speed())
		}
		lv["trace.overhead_frac"] = []float64{median(tw)/median(e2e["wall_s"]) - 1}
		printTable(w, "per-layer (traced passes)", perLayer, lv)
		printShares(w, lv)
		for _, d := range perLayer {
			res.Metrics[d.name] = metricValue{median(lv[d.name]), d.unit}
		}
	} else {
		for _, d := range endToEnd {
			res.Metrics[d.name] = metricValue{median(e2e[d.name]), d.unit}
		}
	}
	for _, v := range []any{struct {
		Meta meta `json:"meta"`
	}{mt}, res} {
		b, err := json.Marshal(v)
		if err != nil {
			panic(err) // only a NaN or Inf metric, which ratio rules out
		}
		fmt.Fprintln(w, string(b))
	}
}

func printTable(w io.Writer, title string, defs []metricDef, vals map[string][]float64) {
	fmt.Fprintf(w, "%s: median [q1 q3] over n\n", title)
	for _, d := range defs {
		q1, med, q3 := quartiles(vals[d.name])
		fmt.Fprintf(w, "  %-26s %14.6g %-8s [%.6g %.6g] n=%d\n", d.name, med, d.unit, q1, q3, len(vals[d.name]))
	}
}

// printShares prints each layer's share of host time inside System.Run.
func printShares(w io.Writer, lv map[string][]float64) {
	layers := []string{"sim", "noc", "mem", "kernel", "cpu"}
	total := 0.0
	for _, l := range layers {
		total += median(lv[l+".self_s"])
	}
	sort.SliceStable(layers, func(i, j int) bool { return median(lv[layers[i]+".self_s"]) > median(lv[layers[j]+".self_s"]) })
	fmt.Fprint(w, "host-time share of the simulated runs:")
	for _, l := range layers {
		fmt.Fprintf(w, " %s %.1f%%", l, 100*ratio(median(lv[l+".self_s"]), total))
	}
	fmt.Fprintln(w)
}

// peakRSSMB is the process's peak resident set size in MB (10^6 bytes).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}

// revision is the VCS revision the command was built from, when the
// build saw one.
func revision() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}
