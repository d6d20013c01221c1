package main

import (
	"fmt"
	"time"

	"repro"
	"repro/internal/experiments"
	simmetrics "repro/internal/metrics"
	"repro/internal/noc"
	"repro/internal/par"
	"repro/internal/sim"
)

// Engine components in platform registration order.
const (
	compNet = iota
	compMem
	compKernel
	compCPU
	nComp
)

// probe collects one traced run's host time from outside the platform:
// a timing decorator around each engine component and timed copies of
// the node sinks. Everything is filled on the simulation goroutine.
type probe struct {
	tick  [nComp]time.Duration
	ticks [nComp]uint64
	// Sink time and deliveries, indexed by compMem and compKernel.
	deliver    [nComp]time.Duration
	deliveries [nComp]uint64

	ocor bool
	run  time.Duration
	// Work counters as deltas over System.Run, and modelled results.
	ticked, skipped, packets, flitHops, saConflicts, l1Misses, dramFetches uint64
	res                                                                    simmetrics.Results
}

// timed forwards sim.Component, sim.WakeSetter and sim.TickPoolUser to
// the wrapped component and times its Tick.
type timed struct {
	c sim.Component
	p *probe
	i int
}

func (t *timed) Tick(now uint64) {
	s := time.Now()
	t.c.Tick(now)
	t.p.tick[t.i] += time.Since(s)
	t.p.ticks[t.i]++
}

func (t *timed) NextWake(now uint64) uint64 { return t.c.NextWake(now) }

func (t *timed) SetWaker(w sim.Waker) { t.c.(sim.WakeSetter).SetWaker(w) }

func (t *timed) SetTickPool(pool *par.Pool) {
	if u, ok := t.c.(sim.TickPoolUser); ok {
		u.SetTickPool(pool)
	}
}

// instrument re-registers sys's components, in platform order, on a fresh
// engine through the timing decorator (carrying over the clock, the wake
// times and the cycle guard, so a restored system resumes where it was),
// and replaces every node sink with a timed copy of the platform's sink.
func instrument(sys *repro.System) (*probe, error) {
	p := &probe{ocor: sys.Cfg.OCOR}
	eng := sim.NewEngine()
	for i, c := range []sim.Component{sys.Net, sys.Mem, sys.Kernel, sys.CPU} {
		if _, ok := c.(sim.WakeSetter); !ok {
			return nil, fmt.Errorf("component %T is not event-driven", c)
		}
		eng.Register(&timed{c: c, p: p, i: i})
	}
	eng.MaxCycles = sys.Engine.MaxCycles
	eng.RestoreClock(sys.Engine.SaveClock())
	if err := eng.RestoreWakes(sys.Engine.SaveWakes()); err != nil {
		return nil, err
	}
	sys.Engine = eng

	net, msys, ksys := sys.Net, sys.Mem, sys.Kernel
	for node := 0; node < net.Cfg.Nodes(); node++ {
		node := node
		net.SetSink(node, func(now uint64, pkt *noc.Packet) {
			s := time.Now()
			var layer int
			switch pkt.PayloadKind {
			case noc.PayloadMem:
				msys.Deliver(now, node, msys.MsgAt(pkt.PayloadRef))
				layer = compMem
			case noc.PayloadKernel:
				ksys.Deliver(now, node, ksys.MsgAt(pkt.PayloadRef))
				layer = compKernel
			default:
				panic(fmt.Sprintf("perfbench: node %d: untyped payload %T (object pools are always on here)", node, pkt.Payload))
			}
			p.deliver[layer] += time.Since(s)
			p.deliveries[layer]++
			net.FreePacket(pkt)
		})
	}
	p.packets, p.flitHops, p.saConflicts, p.l1Misses, p.dramFetches = workCounts(sys)
	_, p.ticked, p.skipped = eng.SaveClock()
	return p, nil
}

// finish turns the work counters into deltas over the run and keeps the
// run's modelled results.
func (p *probe) finish(sys *repro.System, res simmetrics.Results, run time.Duration) {
	packets, hops, conflicts, misses, fetches := workCounts(sys)
	p.packets, p.flitHops, p.saConflicts = packets-p.packets, hops-p.flitHops, conflicts-p.saConflicts
	p.l1Misses, p.dramFetches = misses-p.l1Misses, fetches-p.dramFetches
	_, ticked, skipped := sys.Engine.SaveClock()
	p.ticked, p.skipped = ticked-p.ticked, skipped-p.skipped
	p.res = res
	p.run = run
}

func workCounts(sys *repro.System) (packets, flitHops, saConflicts, l1Misses, dramFetches uint64) {
	packets = sys.Net.Delivered()
	for _, r := range sys.Net.Routers {
		flitHops += r.Stats.FlitsTraversed
		saConflicts += r.Stats.SAConflicts
	}
	for _, l1 := range sys.Mem.L1s {
		l1Misses += l1.Stats.Misses
	}
	for _, d := range sys.Mem.Dirs {
		dramFetches += d.Stats.DramFetches
	}
	return
}

// ledger sums the probes of one traced pass plus the set-up, checkpoint
// and grid layers timed around the platform's public entry points.
type ledger struct {
	probes []*probe

	newT, restore time.Duration
	news          int
	prefix        time.Duration
	snapshotBytes uint64

	gridSelf              time.Duration
	cells, unique, forked int
	prefixCycles          uint64
}

func (l *ledger) built(d time.Duration, restored bool) {
	if restored {
		l.restore += d
		return
	}
	l.newT += d
	l.news++
}

func (l *ledger) gridStats(st experiments.GridStats, self time.Duration) {
	l.gridSelf = self
	l.cells, l.unique, l.forked = st.Cells, st.Unique, st.Forked
	l.prefixCycles = st.PrefixCycles
}

// layers returns the pass's per-layer metrics by name.
func (l *ledger) layers() map[string]float64 {
	var (
		tick, deliver             [nComp]time.Duration
		ticks, deliveries         [nComp]uint64
		run, nocRR, nocPrio       time.Duration
		ticksRR, ticksPrio        uint64
		ticked, skipped           uint64
		packets, hops, conflicts  uint64
		misses, fetches           uint64
		acq, spinAcq, sleeps, coh uint64
		lockLat, dataLat          float64
	)
	for _, p := range l.probes {
		for i := 0; i < nComp; i++ {
			tick[i] += p.tick[i]
			ticks[i] += p.ticks[i]
			deliver[i] += p.deliver[i]
			deliveries[i] += p.deliveries[i]
		}
		nocSelf := p.tick[compNet] - p.deliver[compMem] - p.deliver[compKernel]
		if p.ocor {
			nocPrio += nocSelf
			ticksPrio += p.ticks[compNet]
		} else {
			nocRR += nocSelf
			ticksRR += p.ticks[compNet]
		}
		run += p.run
		ticked += p.ticked
		skipped += p.skipped
		packets += p.packets
		hops += p.flitHops
		conflicts += p.saConflicts
		misses += p.l1Misses
		fetches += p.dramFetches
		acq += p.res.Acquisitions
		spinAcq += p.res.SpinAcquires
		sleeps += p.res.TotalSleeps
		coh += p.res.TotalCOH
		lockLat += p.res.LockLatency
		dataLat += p.res.DataLatency
	}
	runs := float64(len(l.probes))
	nocSelf := nocRR + nocPrio
	memSelf := tick[compMem] + deliver[compMem]
	return map[string]float64{
		"sim.self_s":                (run - tick[compNet] - tick[compMem] - tick[compKernel] - tick[compCPU]).Seconds(),
		"sim.ticked_cycles":         float64(ticked),
		"sim.skipped_cycles":        float64(skipped),
		"noc.self_s":                nocSelf.Seconds(),
		"noc.ticks":                 float64(ticks[compNet]),
		"noc.rr_ns_per_tick":        ratio(float64(nocRR.Nanoseconds()), float64(ticksRR)),
		"noc.prio_ns_per_tick":      ratio(float64(nocPrio.Nanoseconds()), float64(ticksPrio)),
		"noc.packets":               float64(packets),
		"noc.flit_hops":             float64(hops),
		"noc.sa_conflicts":          float64(conflicts),
		"noc.ns_per_flit_hop":       ratio(float64(nocSelf.Nanoseconds()), float64(hops)),
		"noc.lock_latency_cycles":   ratio(lockLat, runs),
		"noc.data_latency_cycles":   ratio(dataLat, runs),
		"mem.self_s":                memSelf.Seconds(),
		"mem.deliveries":            float64(deliveries[compMem]),
		"mem.ns_per_delivery":       ratio(float64(memSelf.Nanoseconds()), float64(deliveries[compMem])),
		"mem.l1_misses":             float64(misses),
		"mem.dram_fetches":          float64(fetches),
		"kernel.self_s":             (tick[compKernel] + deliver[compKernel]).Seconds(),
		"kernel.deliveries":         float64(deliveries[compKernel]),
		"kernel.acquisitions":       float64(acq),
		"kernel.spin_frac":          ratio(float64(spinAcq), float64(acq)),
		"kernel.sleeps":             float64(sleeps),
		"kernel.coh_cycles":         float64(coh),
		"cpu.self_s":                tick[compCPU].Seconds(),
		"cpu.ticks":                 float64(ticks[compCPU]),
		"repro.new_s":               ratio(l.newT.Seconds(), float64(l.news)),
		"repro.run_s":               ratio(run.Seconds(), runs),
		"checkpoint.prefix_s":       l.prefix.Seconds(),
		"checkpoint.restore_s":      l.restore.Seconds(),
		"checkpoint.snapshot_bytes": float64(l.snapshotBytes),
		"checkpoint.prefix_cycles":  float64(l.prefixCycles),
		"experiments.self_s":        l.gridSelf.Seconds(),
		"experiments.unique_frac":   ratio(float64(l.unique), float64(l.cells)),
		"experiments.forked_frac":   ratio(float64(l.forked), float64(l.unique)),
	}
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
