package noc

import (
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/par"
	"repro/internal/sim"
)

// TestLoneHopFastForward pins what the event-driven engine spends on one
// packet crossing an idle 16x16 mesh corner to corner: a flit buffered at
// send time must not make the network tick through the dead cycles of its
// flight. The counts are those of the queued-flit path, whose router-bound
// drains wake one cycle after arrival; direct sends reproduce them through
// Router.readyAt.
func TestLoneHopFastForward(t *testing.T) {
	for _, tc := range []struct {
		lat             int
		class           Class
		end             uint64
		ticked, skipped uint64
	}{
		{1, ClassCtrl, 66, 34, 32},
		{1, ClassData, 73, 72, 1},
		{8, ClassCtrl, 297, 34, 263},
		{8, ClassData, 317, 180, 137},
	} {
		cfg := testConfig(16, 16, true)
		cfg.LinkLatency = tc.lat
		n := MustNetwork(cfg)
		var deliveredAt uint64
		n.SetSink(255, func(now uint64, pkt *Packet) {
			deliveredAt = now
			n.FreePacket(pkt)
		})
		e := sim.NewEngine()
		e.Register(n)
		n.Send(0, n.NewPacket(0, 255, tc.class, VNetResponse, nil))
		e.MaxCycles = 100000
		end := e.RunUntil(func() bool { return !n.Busy() })
		if end != tc.end || e.TickedCycles != tc.ticked || e.SkippedCycles != tc.skipped {
			t.Errorf("LinkLatency=%d %s: end=%d ticked=%d skipped=%d, want end=%d ticked=%d skipped=%d",
				tc.lat, tc.class, end, e.TickedCycles, e.SkippedCycles, tc.end, tc.ticked, tc.skipped)
		}
		if deliveredAt == 0 {
			t.Errorf("LinkLatency=%d %s: packet never delivered", tc.lat, tc.class)
		}
	}
}

// pathMode selects how pathRun routes router-bound flits.
type pathMode int

const (
	pathDirect pathMode = iota // no injector, no pool: flits land at send time
	pathQueue                  // zero-rate injector: every flit is queued and drained
	pathPool                   // pool with ParThreshold -1: sharded ticks, queued flits
	pathDetach                 // pool until detachAt, then direct sends behind queued flits
	pathStrict                 // direct, with the engine in strict mode
)

const (
	detachAt            = 150
	pathTrafficCycles   = 400
	pathMaxCycles       = 20000
	pathWorkers         = 4
	pathLinkLatency     = 4
	pathPacketsPerCycle = 0.08
)

// pathRun drives seeded random traffic over an 8x8 LinkLatency-4 mesh and
// returns the delivery log plus final statistics, and one hash per cycle of
// every router's and NI's counters. It checks the network invariants every
// cycle. In pathDetach mode it also reports whether any router-bound link
// still held queued flits when the pool was detached.
func pathRun(t *testing.T, mode pathMode) (log string, perCycle []uint64, queuedAtDetach bool) {
	t.Helper()
	cfg := testConfig(8, 8, true)
	cfg.LinkLatency = pathLinkLatency
	cfg.ParThreshold = -1
	n := MustNetwork(cfg)
	if mode == pathQueue {
		n.SetFaults(fault.NewInjector(fault.Plan{}))
	}
	var sb strings.Builder
	for i := 0; i < cfg.Nodes(); i++ {
		node := i
		n.SetSink(node, func(now uint64, pkt *Packet) {
			fmt.Fprintf(&sb, "d n=%d id=%d src=%d hops=%d lat=%d at=%d\n",
				node, pkt.ID, pkt.Src, pkt.Hops, pkt.NetLatency(), now)
			n.FreePacket(pkt)
		})
	}
	e := sim.NewEngine()
	e.FastForward = mode != pathStrict
	e.Register(n)
	if mode == pathPool || mode == pathDetach {
		pool := par.NewPool(pathWorkers)
		defer pool.Close()
		e.SetTickPool(pool)
		defer e.SetTickPool(nil)
	}
	rng := sim.NewRNG(31)
	e.Register(&sim.FuncComponent{
		TickFn: func(now uint64) {
			// Strict mode ticks every component every cycle; the
			// event-driven engine first ticks these two at cycle 1.
			if now == 0 || now >= pathTrafficCycles {
				return
			}
			for s := 0; s < cfg.Nodes(); s++ {
				if !rng.Bool(pathPacketsPerCycle) {
					continue
				}
				d := rng.Intn(cfg.Nodes())
				class := []Class{ClassData, ClassCtrl, ClassLock, ClassWakeup}[rng.Intn(4)]
				vn := VNetRequest
				if class == ClassData {
					vn = VNetResponse
				}
				pkt := n.NewPacket(s, d, class, vn, nil)
				if class == ClassLock {
					pkt.Prio = core.Priority{Check: true, Class: uint8(rng.Intn(9)), Prog: uint16(rng.Intn(4))}
				}
				n.Send(now, pkt)
			}
		},
		NextWakeFn: func(now uint64) uint64 {
			if now+1 < pathTrafficCycles {
				return now + 1
			}
			return sim.Never
		},
	})
	// The checker ticks every cycle after the network has.
	e.Register(&sim.FuncComponent{
		TickFn: func(now uint64) {
			if now == 0 {
				return
			}
			checkInvariants(t, n, now)
			if mode == pathDetach && now == detachAt {
				queuedAtDetach = len(n.pendFlits) > 0
				n.SetTickPool(nil)
			}
			h := fnv.New64a()
			for _, r := range n.Routers {
				fmt.Fprint(h, r.Stats.FlitsTraversed, r.Stats.VAGrants, r.Stats.SAConflicts, ';')
			}
			for _, ni := range n.NIs {
				fmt.Fprint(h, ni.FlitsSent, ni.Delivered, ';')
			}
			perCycle = append(perCycle, h.Sum64())
		},
		NextWakeFn: func(now uint64) uint64 { return now + 1 },
	})
	e.MaxCycles = pathMaxCycles
	end := e.RunUntil(func() bool { return e.Now() >= pathTrafficCycles && !n.Busy() })
	if n.Busy() {
		t.Fatalf("mode %d: network not drained after %d cycles", mode, pathMaxCycles)
	}
	fmt.Fprintf(&sb, "end=%d injected=%v delivered=%v flits=%d\n",
		end, n.Stats.InjectedPkts, n.Stats.DeliveredPkts, n.Stats.InjectedFlits)
	for c := 0; c < NumClasses; c++ {
		fmt.Fprintf(&sb, "lat c=%d net=%v total=%v\n", c, n.Stats.NetLatency[c], n.Stats.TotalLatency[c])
	}
	for i, r := range n.Routers {
		fmt.Fprintf(&sb, "r%d %+v\n", i, r.Stats)
	}
	return sb.String(), perCycle, queuedAtDetach
}

// TestDirectAndQueuePathsAgree holds the direct send to the queued-flit
// path it replaces on the common hop: buffering a flit at send time, queuing
// it behind a zero-rate fault injector, sharding ticks over a pool, and
// detaching the pool while flits are still queued on links (the case where
// a direct send must not overtake a queued flit) all give the same
// per-cycle counters, delivery log and statistics as strict mode.
func TestDirectAndQueuePathsAgree(t *testing.T) {
	refLog, refCycles, _ := pathRun(t, pathStrict)
	for _, mode := range []pathMode{pathDirect, pathQueue, pathPool, pathDetach} {
		log, cycles, queued := pathRun(t, mode)
		if mode == pathDetach && !queued {
			t.Fatalf("no router-bound flit was queued at cycle %d: the detach case tests nothing", detachAt)
		}
		if len(cycles) != len(refCycles) {
			t.Fatalf("mode %d: ran %d cycles, strict direct ran %d", mode, len(cycles), len(refCycles))
		}
		for c := range cycles {
			if cycles[c] != refCycles[c] {
				t.Fatalf("mode %d: counters diverge from strict direct at cycle %d", mode, c)
			}
		}
		if log != refLog {
			t.Fatalf("mode %d: delivery log or statistics diverge from strict direct (%d vs %d bytes)",
				mode, len(log), len(refLog))
		}
	}
}
