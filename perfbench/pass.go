package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"runtime/metrics"
	"time"

	"repro"
	"repro/internal/checkpoint"
	"repro/internal/experiments"
	simmetrics "repro/internal/metrics"
	"repro/internal/workload"
)

// pass is one execution of a workload's whole job. Host time the
// benchmark spends checking outputs (own, ownAlloc) is measured and taken
// out of wall and alloc, so wall_s and alloc_mb cover only the platform.
type pass struct {
	wall, setup, run time.Duration
	// cycles sums the simulated cycles each System.Run advanced.
	cycles uint64
	// delivered counts runs or grid cells that completed and passed
	// their checks.
	delivered         int
	attempted, failed int
	errs              []string
	allocBytes        uint64
	digest            string

	// hooks is host time inside the grid hooks; grid is RunGrid's time.
	hooks, grid time.Duration
	own         time.Duration
	ownAlloc    uint64
	// refs holds the reference loop's time (seconds) before each run and
	// once at the end of the pass; see ref.go.
	refs []float64

	// led is non-nil on traced passes.
	led *ledger
}

// runPass executes j once, traced when led is non-nil.
func runPass(j job, led *ledger) *pass {
	p := &pass{led: led}
	h := sha256.New()
	start, a0 := time.Now(), heapAllocs()
	if j.cells != nil {
		p.gridPass(j.cells, h)
	} else {
		for _, cfg := range j.runs {
			cfg := cfg
			res, err := p.simulate(func() (*repro.System, error) { return repro.New(cfg) }, false)
			p.attempted++
			if err != nil {
				p.fail(err)
				continue
			}
			p.delivered++
			p.hash(h, res)
		}
	}
	p.wall = time.Since(start) - p.own
	p.allocBytes = heapAllocs() - a0 - p.ownAlloc
	p.digest = hex.EncodeToString(h.Sum(nil))
	p.refs = append(p.refs, referenceLoop().Seconds())
	return p
}

// speed is the host's speed during the pass relative to nominal; the
// pass's time metrics are host seconds times speed.
func (p *pass) speed() float64 { return hostSpeed(p.refs) }

// simulate times the reference loop, builds a platform with mk (timed
// as set-up), runs it to the end and checks it.
func (p *pass) simulate(mk func() (*repro.System, error), restored bool) (simmetrics.Results, error) {
	t := time.Now()
	p.refs = append(p.refs, referenceLoop().Seconds())
	p.own += time.Since(t)

	t = time.Now()
	sys, err := mk()
	d := time.Since(t)
	p.setup += d
	if p.led != nil {
		p.led.built(d, restored)
	}
	if err != nil {
		return simmetrics.Results{}, err
	}
	var pr *probe
	if p.led != nil {
		if pr, err = instrument(sys); err != nil {
			return simmetrics.Results{}, err
		}
	}
	from := sys.Engine.Now()
	t = time.Now()
	res, err := sys.Run()
	d = time.Since(t)
	p.run += d
	if err != nil {
		return simmetrics.Results{}, err
	}
	p.cycles += sys.Engine.Now() - from
	if pr != nil {
		pr.finish(sys, res, d)
		p.led.probes = append(p.led.probes, pr)
	}

	t, a := time.Now(), heapAllocs()
	err = check(sys, res)
	p.own += time.Since(t)
	p.ownAlloc += heapAllocs() - a
	return res, err
}

// check is the correctness gate of one run: it ended quiescent, its
// caches are coherent and its results are plausible.
func check(sys *repro.System, res simmetrics.Results) error {
	switch {
	case sys.Net.Busy():
		return fmt.Errorf("%s: network busy after the run", res.Benchmark)
	case sys.Mem.Pending() != 0:
		return fmt.Errorf("%s: %d memory operations pending after the run", res.Benchmark, sys.Mem.Pending())
	case sys.Kernel.Pending() != 0:
		return fmt.Errorf("%s: %d kernel operations pending after the run", res.Benchmark, sys.Kernel.Pending())
	case res.ROIFinish == 0 || res.Acquisitions == 0:
		return fmt.Errorf("%s: empty results (ROI %d, %d acquisitions)", res.Benchmark, res.ROIFinish, res.Acquisitions)
	}
	if err := sys.Mem.CheckCoherence(); err != nil {
		return fmt.Errorf("%s: %w", res.Benchmark, err)
	}
	return nil
}

func (p *pass) fail(err error) {
	p.failed++
	p.errs = append(p.errs, err.Error())
}

// hash folds one run's results into the pass digest.
func (p *pass) hash(h hash.Hash, res simmetrics.Results) {
	t, a := time.Now(), heapAllocs()
	b, err := json.Marshal(res)
	if err != nil {
		panic(err) // Results is plain data
	}
	h.Write(b)
	p.own += time.Since(t)
	p.ownAlloc += heapAllocs() - a
}

// gridPass runs the cells through experiments.RunGrid, one simulation at
// a time with warm start on, with hooks that build platforms the way the
// root package's own hooks do, plus timing and the correctness gate.
func (p *pass) gridPass(cells []experiments.Cell, h hash.Hash) {
	// Hook and grid times leave out the checks run inside the hooks, as
	// wall does.
	hook := func(f func() (simmetrics.Results, error)) (simmetrics.Results, error) {
		t, own := time.Now(), p.own
		res, err := f()
		p.hooks += time.Since(t) - (p.own - own)
		return res, err
	}
	experiments.SetRunner(func(prof workload.Profile, threads int, ocor bool, levels int, seed uint64, protocol string, nopool bool, workers int) (simmetrics.Results, error) {
		cfg := repro.Config{Benchmark: prof, Threads: threads, OCOR: ocor, Seed: seed, Protocol: protocol, NoPool: nopool, Workers: workers}
		if levels > 0 {
			cfg.PriorityLevels = levels
		}
		return hook(func() (simmetrics.Results, error) {
			return p.simulate(func() (*repro.System, error) { return repro.New(cfg) }, false)
		})
	}, nil)
	experiments.SetForkRunner(func(c experiments.Cell) (any, uint64, error) {
		cfg := repro.Config{Benchmark: c.Profile, Threads: c.Threads, OCOR: c.OCOR, Seed: c.Seed, NoPool: c.NoPool, Workers: c.Workers}
		t := time.Now()
		snap, cyc, err := repro.BuildPrefix(cfg)
		d := time.Since(t)
		p.hooks += d
		if p.led != nil && err == nil {
			p.led.prefix += d
			p.led.snapshotBytes += uint64(snap.Size())
		}
		return snap, cyc, err
	}, func(prefix any, c experiments.Cell) (simmetrics.Results, error) {
		snap, ok := prefix.(*checkpoint.Snapshot)
		if !ok {
			return simmetrics.Results{}, fmt.Errorf("warm-start prefix is %T, want *checkpoint.Snapshot", prefix)
		}
		cfg := repro.Config{Benchmark: c.Profile, Threads: c.Threads, OCOR: c.OCOR, Seed: c.Seed, Protocol: c.Protocol, NoPool: c.NoPool, Workers: c.Workers}
		if c.Levels > 0 {
			cfg.PriorityLevels = c.Levels
		}
		return hook(func() (simmetrics.Results, error) {
			return p.simulate(func() (*repro.System, error) { return repro.Restore(cfg, snap) }, true)
		})
	})

	// emit runs on RunGrid's collecting goroutine, concurrently with the
	// hooks, so it touches nothing but out.
	out := make([]*simmetrics.Results, len(cells))
	t, own := time.Now(), p.own
	_, st, err := experiments.RunGrid(cells, experiments.GridOptions{Jobs: 1, Warm: true}, func(i int, r simmetrics.Results) {
		out[i] = &r
	})
	p.grid = time.Since(t) - (p.own - own)
	p.attempted += len(cells)
	for _, r := range out {
		if r == nil {
			p.failed++
			continue
		}
		p.delivered++
		p.hash(h, *r)
	}
	if err != nil {
		p.errs = append(p.errs, err.Error())
	}
	if p.led != nil {
		p.led.gridStats(st, p.grid-p.hooks)
	}
}

// heapAllocs returns the cumulative bytes allocated on the Go heap,
// read without stopping the world.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
