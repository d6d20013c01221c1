package noc

import "repro/internal/fault"

// flitEvent is a flit in flight on a link, due at cycle at, destined for
// input VC vc of the receiver. dup marks an injected duplicate: receivers
// skip dup events before touching the packet, because the original may
// already have been delivered (and recycled) in the same drain batch.
// drop marks a flit the injector corrupted in transit: the receiver
// discards it on arrival and immediately credits the buffer slot it
// would have occupied back upstream, so drops degrade throughput without
// ever leaking flow-control credits.
type flitEvent struct {
	f    flit
	vc   int
	at   uint64
	dup  bool
	drop bool
}

// creditEvent travels upstream on a link: one buffer slot of VC vc was
// freed; freeVC additionally releases the VC allocation (the tail flit left
// the downstream buffer).
type creditEvent struct {
	vc     int
	freeVC bool
	at     uint64
}

// link is a unidirectional flit channel with its reverse credit channel.
// Events are appended in increasing `at` order (every sender stamps
// now+LinkLatency), so the pending slices are FIFO. act points at the
// owning network's activity counter; every event in flight contributes one
// unit, which is what makes Network.Busy O(1).
//
// flitRecv/creditRecv, when non-nil, name the router input/output port that
// consumes this link's flit/credit events. Most router-bound flits skip the
// queue (see sendFlit); a queued event puts its link on the network's
// pending lists, so Network.Tick visits only links that hold events
// instead of scanning every port. Links whose events
// are consumed by an NI leave the receiver nil and are drained by the
// ordered NI phases (NI order is visible through delivery callbacks, so it
// must stay index-sequential).
type link struct {
	flits   []flitEvent
	credits []creditEvent
	act     *int

	net        *Network
	flitRecv   *Router
	flitDir    Dir
	creditRecv *Router
	creditDir  Dir

	// niIdx is the node whose NI consumes this link's receiver-less event
	// kind; sends mark that node in the network's niActive bitmap so the
	// NI phase visits only interfaces that hold events.
	niIdx int

	// srcNode/dstNode are the mesh nodes owning this link's flit sender and
	// flit receiver (equal for NI local links). The sharded executor drains
	// a link inside a shard only when both endpoints map to that shard —
	// the fused-phase dependence rule — and pre-drains the rest centrally.
	srcNode int32
	dstNode int32

	flitQueued   bool
	creditQueued bool

	// faults, when non-nil, decides the fate of every flit sent on this
	// link; id is the link's stable fault-injection identity (assigned by
	// Network.SetFaults). Nil faults is the zero-cost default.
	faults *fault.Injector
	id     int32
}

// flitFate asks the injector (if any) what happens to flit f arriving at
// cycle at. It returns the number of events to enqueue (2 = duplicated),
// the possibly delayed arrival cycle, and whether the event is
// drop-marked — the flit still travels (and is accounted) like any
// other, but the receiver discards it on arrival and returns its credit
// instead of buffering it. The fate is a pure function of (plan seed,
// packet id, link id), so all flits of one packet share it: a Drop
// removes the whole packet atomically rather than truncating its flit
// train, and no partial train ever occupies a downstream VC.
func (l *link) flitFate(f flit, at uint64) (n int, when uint64, drop bool) {
	act, extra := l.faults.FlitFate(at, f.pkt.ID, f.isTail(), l.id, uint8(f.pkt.Class))
	switch act {
	case fault.Drop:
		return 1, at, true
	case fault.Dup:
		return 2, at, false
	case fault.Delay:
		return 1, at + extra, false
	}
	return 1, at, false
}

// sendFlit puts flit f on the link toward input VC vc of the receiver,
// arriving at cycle at. When the receiver is a router, no fault injector is
// attached, no tick pool is attached and the link holds no queued flit, the
// flit lands in the receiving VC now, stamped with at (Router.arrive): the
// staging test keeps it ineligible until at+1, so the router sees what the
// queue drain would have given it, without the queue, the pending-list entry
// or the drain. Otherwise the flit is queued:
//   - NI-bound ejection links keep their ordered drain (delivery order and
//     timing are visible);
//   - a fault injector decides the flit's fate on arrival (a drop returns
//     its credit at drain time, a duplicate is discarded there);
//   - with a tick pool attached a shard worker may be ticking the receiver;
//   - a queued flit, e.g. one sent under a pool or restored from a
//     snapshot, must not be overtaken.
func (l *link) sendFlit(f flit, vc int, at uint64) {
	if l.flitRecv != nil && l.faults == nil && len(l.flits) == 0 && l.net.exec == nil {
		l.flitRecv.arrive(l.flitDir, vc, f, at, nil)
		return
	}
	n, drop := 1, false
	if l.faults != nil {
		n, at, drop = l.flitFate(f, at)
	}
	l.pushFlit(f, vc, at, drop, false)
	if n == 2 {
		l.pushFlit(f, vc, at, false, true)
	}
	*l.act += n
	if l.flitRecv != nil {
		if !l.flitQueued {
			l.flitQueued = true
			l.net.pendFlits = append(l.net.pendFlits, l)
		}
	} else {
		l.net.niEvents += n
		l.net.niActive.set(l.niIdx)
	}
}

// pushFlit appends one flit event, writing its fields in place.
func (l *link) pushFlit(f flit, vc int, at uint64, drop, dup bool) {
	l.flits = append(l.flits, flitEvent{})
	ev := &l.flits[len(l.flits)-1]
	ev.f, ev.vc, ev.at, ev.drop, ev.dup = f, vc, at, drop, dup
}

func (l *link) sendCredit(vc int, freeVC bool, at uint64) {
	l.credits = append(l.credits, creditEvent{vc: vc, freeVC: freeVC, at: at})
	*l.act++
	if l.creditRecv != nil {
		if !l.creditQueued {
			l.creditQueued = true
			l.net.pendCredits = append(l.net.pendCredits, l)
		}
	} else {
		l.net.niEvents++
		l.net.niActive.set(l.niIdx)
	}
}

// takeDueFlits removes and returns the prefix of flit events due at or
// before now, plus how many there were. The returned slice aliases storage
// owned by the caller/link pair and is only valid until the next call:
// every caller must store the result back into the scratch it passed,
// because when the whole queue is due (the common case — senders stamp
// now+latency and busy links drain every cycle) the link hands its backing
// array to the caller and adopts the scratch as its new empty queue
// instead of copying.
//
// takeDueFlits performs no shared-counter accounting, which is what lets
// parallel shard workers call it concurrently on distinct links: the
// caller owes the network an activity decrement (and an niEvents decrement
// for NI-consumed links) of `taken`. dueFlits wraps it for the sequential
// paths.
func (l *link) takeDueFlits(now uint64, scratch []flitEvent) (due []flitEvent, taken int) {
	n := 0
	for n < len(l.flits) && l.flits[n].at <= now {
		n++
	}
	if n == 0 {
		return scratch[:0], 0
	}
	if n == len(l.flits) {
		due = l.flits
		l.flits = scratch[:0]
		return due, n
	}
	scratch = append(scratch[:0], l.flits[:n]...)
	l.flits = l.flits[:copy(l.flits, l.flits[n:])]
	return scratch, n
}

// sendFlitPar is sendFlit for a parallel compute phase. The queue append
// itself is race-free — each link has exactly one flit sender (its
// upstream router, or its NI during the injection phase) — but the
// activity counter and the pending-list/NI-bitmap registration are shared,
// so they are deferred into the worker's shard and replayed by the commit
// phase in shard order.
func (l *link) sendFlitPar(f flit, vc int, at uint64, sh *tickShard) {
	n, drop := 1, false
	if l.faults != nil {
		// The fate hash is order-independent and the stat counters are
		// atomic, so the injector is safe from shard workers.
		n, at, drop = l.flitFate(f, at)
	}
	l.pushFlit(f, vc, at, drop, false)
	sh.actDelta++
	sh.sentF = append(sh.sentF, l)
	if n == 2 {
		l.pushFlit(f, vc, at, false, true)
		sh.actDelta++
		sh.sentF = append(sh.sentF, l)
	}
}

// sendCreditPar is sendCredit with the same deferred-side-effect contract
// as sendFlitPar (each link has exactly one credit sender: its downstream
// router or NI).
func (l *link) sendCreditPar(vc int, freeVC bool, at uint64, sh *tickShard) {
	l.credits = append(l.credits, creditEvent{vc: vc, freeVC: freeVC, at: at})
	sh.actDelta++
	sh.sentC = append(sh.sentC, l)
}

// dueFlits is takeDueFlits plus the shared activity/NI-event accounting;
// it is the form the sequential drain and the NI phases use.
func (l *link) dueFlits(now uint64, scratch []flitEvent) []flitEvent {
	due, n := l.takeDueFlits(now, scratch)
	*l.act -= n
	if l.flitRecv == nil {
		l.net.niEvents -= n
	}
	return due
}

// takeDueCredits removes and returns credit events due at or before now,
// with the same swap-don't-copy and no-shared-accounting contract as
// takeDueFlits.
func (l *link) takeDueCredits(now uint64, scratch []creditEvent) (due []creditEvent, taken int) {
	n := 0
	for n < len(l.credits) && l.credits[n].at <= now {
		n++
	}
	if n == 0 {
		return scratch[:0], 0
	}
	if n == len(l.credits) {
		due = l.credits
		l.credits = scratch[:0]
		return due, n
	}
	scratch = append(scratch[:0], l.credits[:n]...)
	l.credits = l.credits[:copy(l.credits, l.credits[n:])]
	return scratch, n
}

// dueCredits is takeDueCredits plus the shared accounting, for the
// sequential paths.
func (l *link) dueCredits(now uint64, scratch []creditEvent) []creditEvent {
	due, n := l.takeDueCredits(now, scratch)
	*l.act -= n
	if l.creditRecv == nil {
		l.net.niEvents -= n
	}
	return due
}

// pending reports the number of undelivered events.
func (l *link) pending() int { return len(l.flits) + len(l.credits) }
