package cpu

import (
	"fmt"

	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/sim"
)

// System runs one thread per node on top of the memory hierarchy and the
// lock kernel. It implements sim.Component for its compute timers.
type System struct {
	Mem    *mem.System
	Kernel *kernel.System

	Threads []*Thread

	delay     sim.DelayQueue
	remaining int
	barriers  map[int]*barrier
	// obs, when non-nil, receives region-transition events.
	obs *obs.Recorder

	// BarrierLatency is the release cost of a barrier in cycles.
	BarrierLatency uint64
}

// barrier is a reusable counting barrier (sense handled implicitly: every
// participant must arrive before any can re-arrive, which the in-order
// thread programs guarantee).
type barrier struct {
	size    int
	waiting []*Thread
}

// NewSystem builds the core complex. programs[i] runs as thread i on node
// i; a nil program leaves the node's core idle (fewer threads than nodes).
func NewSystem(m *mem.System, k *kernel.System, programs []Program) (*System, error) {
	nodes := m.Net.Cfg.Nodes()
	if len(programs) > nodes {
		return nil, fmt.Errorf("cpu: %d programs for %d nodes", len(programs), nodes)
	}
	s := &System{Mem: m, Kernel: k, barriers: make(map[int]*barrier), BarrierLatency: 20}
	for i, p := range programs {
		if p == nil {
			continue
		}
		if err := p.Validate(); err != nil {
			return nil, fmt.Errorf("cpu: thread %d: %w", i, err)
		}
		s.Threads = append(s.Threads, newThread(i, p, s))
	}
	s.remaining = len(s.Threads)
	// Size each barrier group by the number of threads that use it.
	for _, t := range s.Threads {
		seen := make(map[int]bool)
		for _, op := range t.prog {
			if op.Kind == OpBarrier && !seen[int(op.Arg)] {
				seen[int(op.Arg)] = true
				b := s.barriers[int(op.Arg)]
				if b == nil {
					b = &barrier{}
					s.barriers[int(op.Arg)] = b
				}
				b.size++
			}
		}
	}
	return s, nil
}

// barrierArrive parks t at barrier group until every participant arrives,
// then releases all of them after BarrierLatency.
func (s *System) barrierArrive(now uint64, group int, t *Thread) {
	b := s.barriers[group]
	if b == nil || b.size <= 1 {
		s.delay.ScheduleTagged(now+s.BarrierLatency, stepTag(t.ID), 0, 0, t.stepFn)
		return
	}
	b.waiting = append(b.waiting, t)
	if len(b.waiting) < b.size {
		return
	}
	released := b.waiting
	b.waiting = nil
	for _, th := range released {
		s.delay.ScheduleTagged(now+s.BarrierLatency, stepTag(th.ID), 0, 0, th.stepFn)
	}
}

// SetObserver attaches a structured-event recorder (nil detaches).
func (s *System) SetObserver(r *obs.Recorder) { s.obs = r }

func (s *System) notifyRegion(thread int, r Region, now uint64) {
	if s.obs != nil {
		s.obs.Region(now, thread, uint8(r))
	}
}

func (s *System) threadDone() { s.remaining-- }

// Start launches every thread at cycle now.
func (s *System) Start(now uint64) {
	for _, t := range s.Threads {
		t.start(now)
	}
}

// AllDone reports whether every thread finished its program.
func (s *System) AllDone() bool { return s.remaining == 0 }

// ROIFinish returns the cycle at which the last thread finished (the
// paper's Region-of-Interest finish time); call only when AllDone.
func (s *System) ROIFinish() uint64 {
	var max uint64
	for _, t := range s.Threads {
		if t.Stats.FinishedAt > max {
			max = t.Stats.FinishedAt
		}
	}
	return max
}

// Tick implements sim.Component.
func (s *System) Tick(now uint64) { s.delay.RunDue(now) }

// ScheduledOps returns the lifetime count of timer operations scheduled
// on the CPU system's delay queue (a monotone progress signal for the
// simulation watchdog).
func (s *System) ScheduledOps() uint64 { return s.delay.Scheduled() }

// NextWake implements sim.Component.
func (s *System) NextWake(now uint64) uint64 {
	if at, ok := s.delay.Next(); ok {
		return at
	}
	return sim.Never
}

// SetWaker implements sim.WakeSetter: every action scheduled on the shared
// delay queue (including ones scheduled by other components' ticks, e.g. a
// NoC delivery callback) forwards its cycle to the engine.
func (s *System) SetWaker(w sim.Waker) { s.delay.SetNotify(w.Wake) }
