package cpu

import "fmt"

// Region is the coarse execution region a thread is in, used for the
// paper's execution profiles (Fig. 10) and time breakdowns (Fig. 2/14).
type Region uint8

// Execution regions.
const (
	RegionParallel Region = iota // concurrent computation / memory access
	RegionBlocked                // waiting to enter a critical section
	RegionCS                     // executing a critical section
	RegionDone                   // program finished
)

// String implements fmt.Stringer.
func (r Region) String() string {
	return [...]string{"parallel", "blocked", "cs", "done"}[r]
}

// ThreadStats is the per-thread time breakdown.
type ThreadStats struct {
	StartedAt  uint64
	FinishedAt uint64
	// BlockedCycles is the total blocking time (sum of BT across
	// acquisitions); CSCycles the time inside critical sections;
	// parallel time is the remainder.
	BlockedCycles uint64
	CSCycles      uint64
	Acquisitions  uint64
	MemOps        uint64
	ComputeCycles uint64
}

// ParallelCycles derives time spent outside locking regions.
func (s *ThreadStats) ParallelCycles() uint64 {
	total := s.FinishedAt - s.StartedAt
	busy := s.BlockedCycles + s.CSCycles
	if busy > total {
		return 0
	}
	return total - busy
}

// Thread executes a Program on its core.
type Thread struct {
	ID   int
	prog Program
	pc   int

	sys *System

	region      Region
	regionSince uint64
	blockStart  uint64
	csStart     uint64

	Done  bool
	Stats ThreadStats

	// stepFn is t.step bound once at construction. A method value like
	// t.step allocates a fresh closure at every use site, and threads pass
	// their step continuation on every operation — caching it keeps the
	// per-op path allocation-free.
	stepFn func(now uint64)
	// grantFn is t.lockGranted bound once: the lock-acquisition completion
	// continuation. Bound (rather than a per-OpLock closure) so a restored
	// checkpoint can rebind pending acquisitions to the identical callback.
	grantFn func(now uint64)
}

func newThread(id int, prog Program, sys *System) *Thread {
	t := &Thread{ID: id, prog: prog, sys: sys, region: RegionParallel}
	t.stepFn = t.step
	t.grantFn = t.lockGranted
	return t
}

// start begins execution at cycle now.
func (t *Thread) start(now uint64) {
	t.Stats.StartedAt = now
	t.regionSince = now
	t.sys.notifyRegion(t.ID, RegionParallel, now)
	t.step(now)
}

// step executes the operation at pc; each operation's completion callback
// re-enters step for the next one (in-order core).
func (t *Thread) step(now uint64) {
	if t.pc >= len(t.prog) {
		t.finish(now)
		return
	}
	op := t.prog[t.pc]
	t.pc++
	switch op.Kind {
	case OpCompute:
		t.Stats.ComputeCycles += op.Arg
		d := op.Arg
		if d == 0 {
			d = 1
		}
		t.sys.delay.ScheduleTagged(now+d, stepTag(t.ID), 0, 0, t.stepFn)
	case OpLoad:
		t.Stats.MemOps++
		t.sys.Mem.Access(now, t.ID, op.Arg, false, t.stepFn)
	case OpStore:
		t.Stats.MemOps++
		t.sys.Mem.Access(now, t.ID, op.Arg, true, t.stepFn)
	case OpLoadNB:
		t.Stats.MemOps++
		t.sys.Mem.Access(now, t.ID, op.Arg, false, nil)
		t.sys.delay.ScheduleTagged(now+1, stepTag(t.ID), 0, 0, t.stepFn)
	case OpStoreNB:
		t.Stats.MemOps++
		t.sys.Mem.Access(now, t.ID, op.Arg, true, nil)
		t.sys.delay.ScheduleTagged(now+1, stepTag(t.ID), 0, 0, t.stepFn)
	case OpBarrier:
		t.sys.barrierArrive(now, int(op.Arg), t)
	case OpLock:
		t.setRegion(now, RegionBlocked)
		t.blockStart = now
		t.sys.Kernel.Lock(now, t.ID, int(op.Arg), t.grantFn)
	case OpUnlock:
		t.sys.Kernel.Unlock(now, t.ID)
		t.Stats.CSCycles += now - t.csStart
		t.setRegion(now, RegionParallel)
		t.step(now)
	default:
		panic(fmt.Sprintf("cpu: thread %d unknown op %v", t.ID, op.Kind))
	}
}

// lockGranted is the OpLock completion continuation: the thread enters
// its critical section and resumes at the next operation.
func (t *Thread) lockGranted(g uint64) {
	t.Stats.BlockedCycles += g - t.blockStart
	t.Stats.Acquisitions++
	t.csStart = g
	t.setRegion(g, RegionCS)
	t.step(g)
}

func (t *Thread) setRegion(now uint64, r Region) {
	if t.region == r {
		return
	}
	t.region = r
	t.regionSince = now
	t.sys.notifyRegion(t.ID, r, now)
}

func (t *Thread) finish(now uint64) {
	t.Done = true
	t.Stats.FinishedAt = now
	t.setRegion(now, RegionDone)
	t.sys.threadDone()
}
