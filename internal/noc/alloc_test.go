package noc

import (
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/sim"
)

// TestVCExhaustionStalls fills every VC of one virtual network along a
// path and checks that further packets wait (no drops, no overflow) and
// complete once the blockage clears.
func TestVCExhaustionStalls(t *testing.T) {
	cfg := testConfig(6, 1, false)
	n := MustNetwork(cfg)
	delivered := 0
	for i := 0; i < cfg.Nodes(); i++ {
		n.SetSink(i, func(now uint64, pkt *Packet) { delivered++ })
	}
	// Many long data packets on one vnet from node 0 to node 5: only two
	// VCs per vnet exist per port, so most queue at the source NI.
	const total = 12
	for i := 0; i < total; i++ {
		n.Send(0, n.NewPacket(0, 5, ClassData, VNetResponse, i))
	}
	runNet(t, n, 50000)
	if delivered != total {
		t.Fatalf("delivered %d of %d", delivered, total)
	}
}

// TestVNetIsolation checks that saturating one virtual network does not
// block another: control packets on vnet 1 flow past a data flood on
// vnet 2.
func TestVNetIsolation(t *testing.T) {
	cfg := testConfig(6, 1, false)
	n := MustNetwork(cfg)
	var dataDone, ctrlDone []uint64
	n.SetSink(5, func(now uint64, pkt *Packet) {
		if pkt.Class == ClassData {
			dataDone = append(dataDone, now)
		} else {
			ctrlDone = append(ctrlDone, now)
		}
	})
	for i := 0; i < 10; i++ {
		n.Send(0, n.NewPacket(0, 5, ClassData, VNetResponse, nil))
	}
	for i := 0; i < 3; i++ {
		n.Send(0, n.NewPacket(0, 5, ClassCtrl, VNetForward, nil))
	}
	runNet(t, n, 50000)
	if len(ctrlDone) != 3 || len(dataDone) != 10 {
		t.Fatalf("delivered ctrl=%d data=%d", len(ctrlDone), len(dataDone))
	}
	// The last control packet must not wait for the whole data flood.
	if ctrlDone[2] > dataDone[5] {
		t.Fatalf("vnet isolation failed: ctrl finished at %d after most data (%v)", ctrlDone[2], dataDone)
	}
}

// TestPriorityVsRoundRobinOrdering injects equal-priority lock packets and
// checks the baseline round-robin pointers don't starve any source.
func TestNoSourceStarvation(t *testing.T) {
	for _, prio := range []bool{false, true} {
		cfg := testConfig(3, 3, prio)
		n := MustNetwork(cfg)
		perSrc := map[int]int{}
		n.SetSink(4, func(now uint64, pkt *Packet) { perSrc[pkt.Src]++ })
		// All nodes bombard the centre with equal-priority control packets.
		e := sim.NewEngine()
		e.Register(n)
		ticks := 0
		e.Register(&sim.FuncComponent{
			TickFn: func(now uint64) {
				ticks++
				if now >= 2000 {
					return
				}
				for s := 0; s < cfg.Nodes(); s++ {
					if s != 4 && now%4 == 0 {
						n.Send(now, n.NewPacket(s, 4, ClassCtrl, VNetRequest, nil))
					}
				}
			},
			NextWakeFn: func(now uint64) uint64 {
				if now < 2000 {
					return now + 1
				}
				return sim.Never
			},
		})
		e.MaxCycles = 1 << 20
		e.RunUntil(func() bool { return e.Now() > 2000 && !n.Busy() })
		if n.Busy() {
			t.Fatalf("prio=%v: did not drain", prio)
		}
		if ticks == 0 {
			t.Fatalf("prio=%v: injector never ticked", prio)
		}
		min, max := 1<<30, 0
		for s := 0; s < cfg.Nodes(); s++ {
			if s == 4 {
				continue
			}
			c := perSrc[s]
			if c < min {
				min = c
			}
			if c > max {
				max = c
			}
		}
		if min == 0 {
			t.Fatalf("prio=%v: a source was starved entirely: %v", prio, perSrc)
		}
		if float64(min) < 0.5*float64(max) {
			t.Fatalf("prio=%v: unfair service: min=%d max=%d", prio, min, max)
		}
	}
}

// TestPriorityOrderProperty: for any random set of lock packets injected
// simultaneously from one source under OCOR, delivery order must respect
// the Table 1 priority order (FIFO ties aside).
func TestPriorityOrderProperty(t *testing.T) {
	pol := core.DefaultPolicy()
	f := func(raw []uint8) bool {
		if len(raw) == 0 || len(raw) > 12 {
			return true
		}
		cfg := testConfig(5, 1, true)
		n := MustNetwork(cfg)
		var order []core.Priority
		n.SetSink(4, func(now uint64, pkt *Packet) { order = append(order, pkt.Prio) })
		for _, r := range raw {
			rtr := 1 + int(r)%pol.MaxSpin
			pkt := n.NewPacket(0, 4, ClassLock, VNetRequest, rtr)
			pkt.Prio = pol.LockPriority(rtr, 0)
			n.Send(0, pkt)
		}
		e := sim.NewEngine()
		e.Register(n)
		e.MaxCycles = 1 << 20
		e.RunUntil(func() bool { return !n.Busy() })
		if len(order) != len(raw) {
			return false
		}
		for i := 1; i < len(order); i++ {
			if core.Compare(order[i-1], order[i]) < 0 {
				return false // a strictly lower-priority packet arrived first
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestRouterStatsAccumulate sanity-checks per-router counters.
func TestRouterStatsAccumulate(t *testing.T) {
	cfg := testConfig(4, 1, false)
	n := MustNetwork(cfg)
	n.SetSink(3, func(now uint64, pkt *Packet) {})
	n.Send(0, n.NewPacket(0, 3, ClassData, VNetResponse, nil))
	runNet(t, n, 10000)
	var traversed, va, sa uint64
	for _, r := range n.Routers {
		traversed += r.Stats.FlitsTraversed
		va += r.Stats.VAGrants
		sa += r.Stats.SAGrants
	}
	// 8 flits across 4 routers.
	if traversed != 8*4 {
		t.Fatalf("flit-hops = %d, want 32", traversed)
	}
	if va != 4 {
		t.Fatalf("VA grants = %d, want 4 (one per router)", va)
	}
	if sa != traversed {
		t.Fatalf("SA grants = %d, want %d", sa, traversed)
	}
	if n.Routers[0].BufferedFlits() != 0 {
		t.Fatal("flits left buffered")
	}
}

// TestInjectionQueuePriority: under OCOR the NI must promote a
// high-priority lock packet past earlier-queued normal packets of the
// same vnet.
func TestInjectionQueuePriority(t *testing.T) {
	cfg := testConfig(4, 1, true)
	n := MustNetwork(cfg)
	var order []Class
	n.SetSink(3, func(now uint64, pkt *Packet) { order = append(order, pkt.Class) })
	pol := core.DefaultPolicy()
	// Enough ctrl packets (vnet 0) to exhaust the vnet's injection VCs,
	// then a lock packet queued behind them.
	for i := 0; i < 6; i++ {
		n.Send(0, n.NewPacket(0, 3, ClassCtrl, VNetRequest, nil))
	}
	lk := n.NewPacket(0, 3, ClassLock, VNetRequest, nil)
	lk.Prio = pol.LockPriority(1, 0)
	n.Send(0, lk)
	runNet(t, n, 10000)
	if len(order) != 7 {
		t.Fatalf("delivered %d", len(order))
	}
	pos := -1
	for i, c := range order {
		if c == ClassLock {
			pos = i
		}
	}
	if pos == len(order)-1 {
		t.Fatal("lock packet was not promoted past queued normal traffic")
	}
}
