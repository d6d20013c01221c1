// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 5): the competition-overhead characterisation
// (Fig. 2), the bodytrack execution profile (Fig. 10), COH reduction and
// spinning-phase entry improvements (Fig. 11), the benchmark
// characterisation (Fig. 12), relative critical-section execution time
// (Fig. 13), ROI finish-time improvements (Fig. 14), thread-count
// scalability (Fig. 15), priority-level sensitivity (Fig. 16) and the
// summary Table 3.
package experiments

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/metrics"
	"repro/internal/par"
	"repro/internal/workload"
)

// Options configures an experiment run.
type Options struct {
	// Threads is the core/thread count (paper default 64).
	Threads int
	// Seed drives all workload generation and simulation randomness.
	Seed uint64
	// Scale multiplies per-benchmark iteration counts (1.0 = calibrated
	// defaults; benchmarks may use smaller values for quick runs).
	Scale float64
	// Quick restricts suite-wide experiments to a representative subset
	// of benchmarks.
	Quick bool
	// Jobs bounds how many independent simulations run concurrently
	// (0 = GOMAXPROCS). Results and progress output are independent of
	// the setting: every simulation is seeded individually and reports
	// are assembled in catalog order.
	Jobs int
	// NoPool disables the platform's object freelists and allocates every
	// packet/message from the heap instead. Results are byte-identical
	// either way (the pool regression tests assert it); the switch exists
	// to isolate the recycler when debugging and to measure its effect.
	NoPool bool
	// Workers is the intra-simulation parallelism width handed to every
	// run (values > 1 shard each NoC tick over a worker pool of that
	// size). Results are byte-identical for every value; only wall-clock
	// time changes. Workers and Jobs compose through a shared core
	// budget: when Jobs is 0 and Workers > 1, the effective job count is
	// GOMAXPROCS / Workers (min 1) so the two levels together never
	// oversubscribe the machine.
	Workers int
	// Protocol selects the kernel lock algorithm for every run ("" = the
	// default queue spinlock). See internal/kernel/protocol.
	Protocol string
}

// withDefaults normalises unset options.
func (o Options) withDefaults() Options {
	if o.Threads == 0 {
		o.Threads = 64
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Scale == 0 {
		o.Scale = 1
	}
	return o
}

// quickSet is the representative subset used when Options.Quick is set:
// two high/high, one high/low, one low/high and two low/low programs.
var quickSet = map[string]bool{
	"botss": true, "can": true, "body": true,
	"freq": true, "smith": true, "imag": true,
}

// profiles returns the benchmark list an experiment runs over.
func (o Options) profiles() []workload.Profile {
	all := workload.Catalog()
	if !o.Quick {
		return all
	}
	var out []workload.Profile
	for _, p := range all {
		if quickSet[p.Name] {
			out = append(out, p)
		}
	}
	return out
}

// Runner abstracts the platform entry point so the experiments package
// does not import the root package (which imports this one). The root
// package installs its runner at init time. levels selects the number of
// priority levels (0 = the paper default of 8); protocol the kernel lock
// algorithm ("" = default); nopool disables object recycling
// (Options.NoPool); workers is the intra-simulation parallelism width
// (Options.Workers).
type Runner func(p workload.Profile, threads int, ocor bool, levels int, seed uint64, protocol string, nopool bool, workers int) (metrics.Results, error)

// TraceRunner additionally returns the run's rendered execution profile
// (Fig. 10).
type TraceRunner func(p workload.Profile, threads int, ocor bool, seed uint64, protocol string, nopool bool, workers int) (metrics.Results, string, error)

var (
	runner Runner
	tracer TraceRunner
)

// SetRunner installs the simulation entry points. The root package calls
// this from an init function.
func SetRunner(r Runner, t TraceRunner) { runner, tracer = r, t }

func (o Options) run(p workload.Profile, threads int, ocor bool, seed uint64) (metrics.Results, error) {
	return runner(p, threads, ocor, 0, seed, o.Protocol, o.NoPool, o.Workers)
}

// effectiveJobs resolves the outer concurrency bound passed to par.Map:
// Jobs and Workers compose through par.SharedCoreBudget, so jobs × workers
// stays within the machine's core budget (and never drops below one job).
func (o Options) effectiveJobs() int {
	return par.SharedCoreBudget(o.Jobs, o.Workers)
}

// BenchResult pairs the baseline and OCOR results of one benchmark.
type BenchResult struct {
	Profile workload.Profile
	Base    metrics.Results
	OCOR    metrics.Results
}

// COHImprovement is the relative COH reduction (Fig. 11a).
func (b BenchResult) COHImprovement() float64 { return metrics.COHImprovement(b.Base, b.OCOR) }

// ROIImprovement is the relative ROI finish-time reduction (Fig. 14b).
func (b BenchResult) ROIImprovement() float64 { return metrics.ROIImprovement(b.Base, b.OCOR) }

// SpinGain is the spinning-phase entry increase in fraction points (Fig. 11b).
func (b BenchResult) SpinGain() float64 { return metrics.SpinFractionGain(b.Base, b.OCOR) }

// RunSuite runs baseline and OCOR for every benchmark in the catalog (or
// the quick subset) and returns the per-benchmark result pairs. This is
// the shared substrate of Figs. 2, 11, 12, 13, 14 and Table 3.
func RunSuite(o Options, progress io.Writer) ([]BenchResult, error) {
	o = o.withDefaults()
	if runner == nil {
		return nil, fmt.Errorf("experiments: no runner installed")
	}
	profs := o.profiles()
	scaled := make([]workload.Profile, len(profs))
	for i, p := range profs {
		scaled[i] = p.Scale(o.Scale)
	}
	// Two independent jobs per benchmark: even index = baseline, odd =
	// OCOR. The ordered emitter prints one combined progress line per
	// benchmark once its OCOR half (the higher index) completes, so the
	// output bytes match the serial loop regardless of Jobs.
	var lastBase metrics.Results
	res, err := par.Map(2*len(scaled), o.effectiveJobs(), func(i int) (metrics.Results, error) {
		p := scaled[i/2]
		ocor := i%2 == 1
		r, err := o.run(p, o.Threads, ocor, o.Seed)
		if err != nil {
			kind := "baseline"
			if ocor {
				kind = "ocor"
			}
			return metrics.Results{}, fmt.Errorf("experiments: %s %s: %w", p.Name, kind, err)
		}
		return r, nil
	}, func(i int, v metrics.Results) {
		if i%2 == 0 {
			lastBase = v
			return
		}
		if progress != nil {
			p := scaled[i/2]
			br := BenchResult{Profile: p, Base: lastBase, OCOR: v}
			fmt.Fprintf(progress, "running %-8s (%s, cs=%s net=%s) ... COH -%.1f%%  ROI -%.1f%%\n",
				p.Name, p.Suite, p.CSRate, p.NetUtil, 100*br.COHImprovement(), 100*br.ROIImprovement())
		}
	})
	if err != nil {
		return nil, err
	}
	out := make([]BenchResult, len(scaled))
	for i, p := range scaled {
		out[i] = BenchResult{Profile: p, Base: res[2*i], OCOR: res[2*i+1]}
	}
	return out, nil
}

// sortByCOHImprovement orders results most-improved first, as Fig. 11
// presents them.
func sortByCOHImprovement(rs []BenchResult) []BenchResult {
	out := make([]BenchResult, len(rs))
	copy(out, rs)
	sort.SliceStable(out, func(i, j int) bool {
		return out[i].COHImprovement() > out[j].COHImprovement()
	})
	return out
}

func pct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }

// profileT aliases the workload profile type for the figure helpers.
type profileT = workload.Profile

// lookupProfile finds a catalog profile by name.
func lookupProfile(name string) (workload.Profile, error) {
	return workload.ByName(name)
}
