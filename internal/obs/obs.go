// Package obs is the cross-layer structured tracing subsystem: a
// zero-cost-when-disabled event Recorder spanning the NoC (injection,
// per-hop arbitration, ejection), the lock kernel (spin / futex / acquire
// lifecycle), the cores (region transitions) and the simulation engine
// (wake jumps and steps).
//
// Every instrumented subsystem holds a *Recorder that is nil by default;
// emission sites guard with a nil check, so disabled runs pay a single
// predictable branch and zero allocation, and simulation results are
// bit-identical with or without a recorder attached (a regression test
// asserts it — the recorder only observes, never mutates).
//
// On top of the raw event stream the package provides streaming log-bucket
// latency statistics and per-thread execution profiles (Stats, updated as
// events are emitted, so they survive ring-buffer eviction; Stats.Gantt
// renders the paper's Fig. 10), a Perfetto/Chrome trace-event JSON
// exporter (WriteTrace) and an acquisition-lifecycle query layer
// (Acquisitions, TopSlowest) used by cmd/traceq.
package obs

import "repro/internal/core"

// Kind enumerates the typed events of the recorder.
type Kind uint8

// Event kinds, grouped by emitting layer.
const (
	// NoC events.
	KindPktInject Kind = iota // NI injected a packet's head flit
	KindVAGrant               // router granted an output VC
	KindSAWin                 // router switch grant that beat >=1 bidder
	KindSALoss                // router switch bid that lost this cycle
	KindHop                   // head flit traversed a router crossbar
	KindPktEject              // NI ejected a packet's tail flit
	// Lock-kernel events.
	KindSpinStart   // thread began a spinning-phase acquisition
	KindRTRTick     // spin budget drained by one retry
	KindFutexWait   // thread issued FUTEX_WAIT (entering the sleeping phase)
	KindWakeup      // slept thread began its wake-up transition
	KindAcquire     // lock granted: one completed acquisition
	KindRelease     // critical section completed
	KindLockGrant   // home controller granted a try-lock
	KindLockFail    // home controller rejected a try-lock
	KindThreadState // lock-path thread state transition
	// CPU events.
	KindRegion // coarse execution-region transition (parallel/blocked/cs)
	// Engine events.
	KindEngineWake // fast-forward clock jump to the next busy cycle
	KindEngineStep // one executed engine cycle (disabled by default: hot)
	NumKinds
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	names := [...]string{
		"pkt-inject", "va-grant", "sa-win", "sa-loss", "hop", "pkt-eject",
		"spin-start", "rtr-tick", "futex-wait", "wakeup", "acquire",
		"release", "lock-grant", "lock-fail", "thread-state", "region",
		"engine-wake", "engine-step",
	}
	if int(k) < len(names) {
		return names[k]
	}
	return "kind?"
}

// Rule identifies which Table 1 rule decided a contested switch
// allocation (or that none could, and round-robin order decided).
type Rule uint8

// Arbitration outcome classification.
const (
	RuleTie          Rule = iota // priorities indistinguishable: round-robin/FIFO decided
	RuleLockFirst                // rule 2: locking request beat normal traffic
	RuleSlowProgress             // rule 1: slower progress won
	RuleLeastRTR                 // rule 3: smaller remaining-retry budget won
	RuleWakeupLast               // rule 4: wakeup demoted below a locking request
	NumRules
)

// String implements fmt.Stringer.
func (r Rule) String() string {
	return [...]string{"tie/round-robin", "lock-first", "slow-progress-first", "least-rtr-first", "wakeup-last"}[r]
}

// DecisiveRule classifies which Table 1 rule separated the winning
// priority from a losing one, mirroring the comparison order of
// core.Compare. Indistinguishable words return RuleTie (the arbiter fell
// back to its rotating pointer).
func DecisiveRule(win, lose core.Priority) Rule {
	if core.Compare(win, lose) == 0 {
		return RuleTie
	}
	switch {
	case win.Check != lose.Check:
		return RuleLockFirst
	case win.Prog != lose.Prog:
		return RuleSlowProgress
	case win.Class == core.WakeupClass || lose.Class == core.WakeupClass:
		return RuleWakeupLast
	default:
		return RuleLeastRTR
	}
}

// Event is one fixed-size recorded occurrence. Field use is per Kind:
//
//	PktInject:   Node=src, Pkt=id, V1=dst, V2=EncodePriority, A=class, B=vnet, C=size
//	VAGrant:     Node=router, Pkt=id, A=inDir, B=inVC, C=outVC
//	SAWin:       Node=router, Pkt=winner, V1=bidders, A=outDir, B=Rule
//	SALoss:      Node=router, Pkt=loser, Pkt2=winner, A=outDir, B=Rule
//	Hop:         Node=router, Pkt=id, V1=cycles buffered at this router, A=inDir, B=outDir, C=outVC
//	PktEject:    Node=dst, Pkt=id, V1=hops, V2=net latency, V3=total latency, A=class
//	SpinStart:   Node=thread, V1=lock, V2=spin budget
//	RTRTick:     Node=thread, V1=lock, V2=remaining budget
//	FutexWait:   Node=thread, V1=lock, V2=sleep episode #
//	Wakeup:      Node=thread, V1=lock
//	Acquire:     Node=thread, V1=lock, V2=BT, V3=COH, Pkt=grant pkt, Pkt2=winning request pkt,
//	             A=1 if spin-phase, B=retries (saturated at 255), C=sleeps (saturated at 255)
//	Release:     Node=thread, V1=lock, V2=held cycles
//	LockGrant:   Node=home, Pkt=request pkt, V1=lock, V2=thread
//	LockFail:    Node=home, Pkt=request pkt, V1=lock, V2=thread
//	ThreadState: Node=thread, A=kernel.ThreadState
//	Region:      Node=thread, A=cpu.Region
//	EngineWake:  V1=cycles skipped
//	EngineStep:  (At only)
type Event struct {
	At   uint64
	Pkt  uint64
	Pkt2 uint64
	V1   uint64
	V2   uint64
	V3   uint64
	Node int32
	Kind Kind
	A    uint8
	B    uint8
	C    uint8
}

// EncodePriority packs a priority word into an event field.
func EncodePriority(p core.Priority) uint64 {
	v := uint64(p.Prog) | uint64(p.Class)<<16
	if p.Check {
		v |= 1 << 24
	}
	return v
}

// DecodePriority unpacks EncodePriority.
func DecodePriority(v uint64) core.Priority {
	return core.Priority{
		Check: v&(1<<24) != 0,
		Class: uint8(v >> 16),
		Prog:  uint16(v),
	}
}

// DefaultCapacity is the default ring size in events (power of two).
const DefaultCapacity = 1 << 20

// DefaultKinds enables every kind except the per-cycle KindEngineStep,
// which is hot enough to evict everything else from the ring.
const DefaultKinds = uint64(1)<<NumKinds - 1 - 1<<KindEngineStep

// Recorder is a single-writer ring buffer of events plus streaming
// statistics. The simulation is single-goroutine, so emission is a plain
// masked store — the "lock-free" structure is the fixed power-of-two ring
// that never reallocates on the hot path. When the ring wraps, the oldest
// events are overwritten (Dropped reports how many); the streaming Stats
// see every emitted event regardless of eviction.
type Recorder struct {
	buf   []Event
	head  uint64 // total events accepted
	mask  uint64
	kinds uint64 // bitmask of enabled kinds

	// Stats accumulates streaming histograms and arbitration counters.
	Stats Stats
}

// NewRecorder returns a recorder holding up to capacity events (rounded up
// to a power of two; <= 0 selects DefaultCapacity). All kinds except
// KindEngineStep start enabled.
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	n := 1
	for n < capacity {
		n <<= 1
	}
	return &Recorder{buf: make([]Event, n), mask: uint64(n) - 1, kinds: DefaultKinds}
}

// EnableKind turns recording of one kind on or off.
func (r *Recorder) EnableKind(k Kind, on bool) {
	if on {
		r.kinds |= 1 << k
	} else {
		r.kinds &^= 1 << k
	}
}

// Enabled reports whether a kind is recorded.
func (r *Recorder) Enabled(k Kind) bool { return r.kinds&(1<<k) != 0 }

// Emit records one event (the hot path).
func (r *Recorder) Emit(ev Event) {
	if r.kinds&(1<<ev.Kind) == 0 {
		return
	}
	r.Stats.observe(&ev)
	r.buf[r.head&r.mask] = ev
	r.head++
}

// Len returns the number of events currently retained.
func (r *Recorder) Len() int {
	if r.head > uint64(len(r.buf)) {
		return len(r.buf)
	}
	return int(r.head)
}

// Dropped returns how many events the ring overwrote. Anything consuming
// Events should surface this — a truncated trace must not read as complete.
func (r *Recorder) Dropped() uint64 {
	if r.head > uint64(len(r.buf)) {
		return r.head - uint64(len(r.buf))
	}
	return 0
}

// Events returns the retained events oldest-first.
func (r *Recorder) Events() []Event {
	n := uint64(r.Len())
	out := make([]Event, 0, n)
	for i := r.head - n; i < r.head; i++ {
		out = append(out, r.buf[i&r.mask])
	}
	return out
}

// ------------------------------------------------ typed emission helpers --
// One helper per instrumentation site keeps the call sites single-line.
// Callers nil-check the recorder before calling.

// PktInjected records a head flit entering the network at its source NI.
func (r *Recorder) PktInjected(now, pkt uint64, src, dst int, class uint8, vnet, size int, prio core.Priority) {
	r.Emit(Event{At: now, Kind: KindPktInject, Pkt: pkt, Node: int32(src),
		V1: uint64(dst), V2: EncodePriority(prio), A: class, B: uint8(vnet), C: uint8(size)})
}

// VAGranted records a successful output-VC allocation.
func (r *Recorder) VAGranted(now uint64, router int, pkt uint64, inDir, inVC, outVC int) {
	r.Emit(Event{At: now, Kind: KindVAGrant, Pkt: pkt, Node: int32(router),
		A: uint8(inDir), B: uint8(inVC), C: uint8(outVC)})
}

// SAWin records a contested switch grant and the rule that beat the
// strongest losing bidder.
func (r *Recorder) SAWin(now uint64, router int, pkt uint64, outDir int, rule Rule, bidders int) {
	r.Emit(Event{At: now, Kind: KindSAWin, Pkt: pkt, Node: int32(router),
		V1: uint64(bidders), A: uint8(outDir), B: uint8(rule)})
}

// SALoss records one losing switch bid and the rule it lost by.
func (r *Recorder) SALoss(now uint64, router int, loser, winner uint64, outDir int, rule Rule) {
	r.Emit(Event{At: now, Kind: KindSALoss, Pkt: loser, Pkt2: winner, Node: int32(router),
		A: uint8(outDir), B: uint8(rule)})
}

// Hop records a head flit's switch traversal; buffered is how long it sat
// in this router's input buffer.
func (r *Recorder) Hop(now uint64, router int, pkt, buffered uint64, inDir, outDir, outVC int) {
	r.Emit(Event{At: now, Kind: KindHop, Pkt: pkt, Node: int32(router),
		V1: buffered, A: uint8(inDir), B: uint8(outDir), C: uint8(outVC)})
}

// PktEjected records a tail flit leaving the network at its destination NI.
func (r *Recorder) PktEjected(now, pkt uint64, dst, hops int, netLat, totLat uint64, class uint8) {
	r.Emit(Event{At: now, Kind: KindPktEject, Pkt: pkt, Node: int32(dst),
		V1: uint64(hops), V2: netLat, V3: totLat, A: class})
}

// SpinStart records a thread entering the spinning phase for lock.
func (r *Recorder) SpinStart(now uint64, thread, lock, budget int) {
	r.Emit(Event{At: now, Kind: KindSpinStart, Node: int32(thread), V1: uint64(lock), V2: uint64(budget)})
}

// RTRTick records one cpu_relax retry draining the spin budget.
func (r *Recorder) RTRTick(now uint64, thread, lock, remaining int) {
	r.Emit(Event{At: now, Kind: KindRTRTick, Node: int32(thread), V1: uint64(lock), V2: uint64(remaining)})
}

// FutexWait records a thread entering the sleeping phase.
func (r *Recorder) FutexWait(now uint64, thread, lock, episode int) {
	r.Emit(Event{At: now, Kind: KindFutexWait, Node: int32(thread), V1: uint64(lock), V2: uint64(episode)})
}

// WakeupBegin records a slept thread starting its wake-up transition.
func (r *Recorder) WakeupBegin(now uint64, thread, lock int) {
	r.Emit(Event{At: now, Kind: KindWakeup, Node: int32(thread), V1: uint64(lock)})
}

// Acquired records one completed acquisition with its blocking-time
// decomposition and the grant / winning-request packet ids.
func (r *Recorder) Acquired(now uint64, thread, lock int, bt, coh uint64, spinPhase bool, retries, sleeps int, grantPkt, reqPkt uint64) {
	spin := uint8(0)
	if spinPhase {
		spin = 1
	}
	r.Emit(Event{At: now, Kind: KindAcquire, Node: int32(thread), Pkt: grantPkt, Pkt2: reqPkt,
		V1: uint64(lock), V2: bt, V3: coh, A: spin, B: sat8(retries), C: sat8(sleeps)})
}

// Released records a critical section completing.
func (r *Recorder) Released(now uint64, thread, lock int, held uint64) {
	r.Emit(Event{At: now, Kind: KindRelease, Node: int32(thread), V1: uint64(lock), V2: held})
}

// LockDecision records the home controller granting or rejecting a
// try-lock request.
func (r *Recorder) LockDecision(now uint64, home, lock, thread int, reqPkt uint64, granted bool) {
	k := KindLockFail
	if granted {
		k = KindLockGrant
	}
	r.Emit(Event{At: now, Kind: k, Node: int32(home), Pkt: reqPkt, V1: uint64(lock), V2: uint64(thread)})
}

// ThreadState records a lock-path state transition.
func (r *Recorder) ThreadState(now uint64, thread int, state uint8) {
	r.Emit(Event{At: now, Kind: KindThreadState, Node: int32(thread), A: state})
}

// Region records a coarse execution-region transition.
func (r *Recorder) Region(now uint64, thread int, region uint8) {
	r.Emit(Event{At: now, Kind: KindRegion, Node: int32(thread), A: region})
}

// EngineWake records a fast-forward clock jump landing at now.
func (r *Recorder) EngineWake(now, skipped uint64) {
	r.Emit(Event{At: now, Kind: KindEngineWake, V1: skipped})
}

// EngineStep records one executed engine cycle (off by default).
func (r *Recorder) EngineStep(now uint64) {
	r.Emit(Event{At: now, Kind: KindEngineStep})
}

func sat8(v int) uint8 {
	if v > 255 {
		return 255
	}
	if v < 0 {
		return 0
	}
	return uint8(v)
}
