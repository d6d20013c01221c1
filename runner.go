package repro

import (
	"fmt"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/kernel"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// init installs the platform entry points into the experiments package,
// which cannot import this package directly.
func init() {
	experiments.SetRunner(experimentRun, experimentTrace)
	experiments.SetFaultRunner(experimentFaultRun)
	experiments.SetArenaRunner(experimentArenaRun)
	experiments.SetForkRunner(experimentPrefix, experimentFork)
}

// experimentPrefix is the experiments.PrefixBuilder: it simulates the
// cell's protocol-independent prefix once (Protocol/Levels deliberately
// left at their defaults — the snapshot stops before the kernel ever
// consults them) and returns the platform snapshot.
func experimentPrefix(c experiments.Cell) (any, uint64, error) {
	cfg := Config{
		Benchmark: c.Profile, Threads: c.Threads, OCOR: c.OCOR,
		Seed: c.Seed, NoPool: c.NoPool, Workers: c.Workers,
	}
	return BuildPrefix(cfg)
}

// experimentFork is the experiments.ForkFn: it restores a prefix snapshot
// into the cell's full configuration and runs the remainder.
func experimentFork(prefix any, c experiments.Cell) (metrics.Results, error) {
	snap, ok := prefix.(*checkpoint.Snapshot)
	if !ok {
		return metrics.Results{}, fmt.Errorf("repro: warm-start prefix is %T, want *checkpoint.Snapshot", prefix)
	}
	cfg := Config{
		Benchmark: c.Profile, Threads: c.Threads, OCOR: c.OCOR,
		Seed: c.Seed, Protocol: c.Protocol, NoPool: c.NoPool, Workers: c.Workers,
	}
	if c.Levels > 0 {
		cfg.PriorityLevels = c.Levels
	}
	return ForkRun(cfg, snap)
}

// experimentRun is the experiments.Runner backed by the full platform.
func experimentRun(p workload.Profile, threads int, ocor bool, levels int, seed uint64, protocol string, nopool bool, workers int) (metrics.Results, error) {
	cfg := Config{Benchmark: p, Threads: threads, OCOR: ocor, Seed: seed, Protocol: protocol, NoPool: nopool, Workers: workers}
	if levels > 0 {
		cfg.PriorityLevels = levels
	}
	sys, err := New(cfg)
	if err != nil {
		return metrics.Results{}, err
	}
	return sys.Run()
}

// fig10Threads is how many threads the Fig. 10 execution profile shows.
const fig10Threads = 16

// experimentTrace is the experiments.TraceRunner: it runs with a
// region-only recorder attached and renders the execution profile of the
// first fig10Threads threads over the first eighth of the run, mirroring
// the paper's 3000-cycle excerpt.
func experimentTrace(p workload.Profile, threads int, ocor bool, seed uint64, protocol string, nopool bool, workers int) (metrics.Results, string, error) {
	rec := obs.NewProfileRecorder()
	sys, err := New(Config{Benchmark: p, Threads: threads, OCOR: ocor, Seed: seed, Protocol: protocol, Obs: rec, NoPool: nopool, Workers: workers})
	if err != nil {
		return metrics.Results{}, "", err
	}
	res, err := sys.Run()
	if err != nil {
		return metrics.Results{}, "", err
	}
	window := res.ROIFinish / 8
	if window == 0 {
		window = res.ROIFinish
	}
	col := max(window/60, 1)
	return res, rec.Stats.Gantt(fig10Threads, window, col), nil
}

// experimentArenaRun is the experiments.ArenaRunner: one tournament cell.
// The arena gets the collector's per-acquisition blocking-time and COH
// histograms plus the kernel's handoff and queue-depth counters alongside
// the standard results.
func experimentArenaRun(p workload.Profile, threads int, ocor bool, seed uint64, protocol string, workers int) (experiments.ArenaRun, error) {
	sys, err := New(Config{
		Benchmark: p, Threads: threads, OCOR: ocor, Seed: seed,
		Protocol: protocol, Workers: workers,
	})
	if err != nil {
		return experiments.ArenaRun{}, err
	}
	res, err := sys.Run()
	if err != nil {
		return experiments.ArenaRun{}, err
	}
	run := experiments.ArenaRun{Results: res, BT: sys.Collector.BTHist, COH: sys.Collector.COHHist}
	for _, st := range sys.Kernel.LockStats(sys.Engine.Now()) {
		run.Handoffs += st.Handoffs
		if st.MaxQueueDepth > run.MaxQueueDepth {
			run.MaxQueueDepth = st.MaxQueueDepth
		}
	}
	return run, nil
}

// experimentFaultRun is the experiments.FaultRunner: one fault-injected
// run under a watchdog (so a fault-induced deadlock becomes a prompt
// typed failure, in deterministic cycles, instead of burning the
// MaxCycles budget) and an optional wall-clock timeout with panic
// capture. Run failures are folded into the outcome — a degraded run is
// a data point of the sweep, not an error.
func experimentFaultRun(p workload.Profile, threads int, ocor bool, seed uint64, protocol string,
	plan fault.Plan, recovery bool, workers int, timeout time.Duration) (experiments.FaultOutcome, error) {
	cfg := Config{
		Benchmark: p, Threads: threads, OCOR: ocor, Seed: seed, Protocol: protocol, Workers: workers,
		Recovery: &kernel.RecoveryConfig{Enabled: recovery},
		Watchdog: &sim.WatchdogConfig{},
	}
	if plan.Enabled() {
		cfg.Faults = &plan
	}
	sys, err := New(cfg)
	if err != nil {
		return experiments.FaultOutcome{}, err
	}
	// RunWithTimeout carries the panic net at every deadline, including
	// "none": a panicking degraded run is a data point, not a crash.
	res, err := sys.RunWithTimeout(timeout)
	out := experiments.FaultOutcome{
		OK:       err == nil,
		Results:  res,
		Recovery: sys.Kernel.RecoveryStats(),
	}
	if err != nil {
		out.Failure = err.Error()
		out.Results = metrics.Results{}
	}
	if sys.Faults != nil {
		out.Faults = sys.Faults.SnapshotStats()
	}
	return out, nil
}

// Experiments re-exports the experiment options type for cmd binaries and
// library users.
type Experiments = experiments.Options
