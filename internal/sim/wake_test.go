package sim

import (
	"reflect"
	"testing"
)

// pushComp is a minimal event-driven component: it records every tick and
// wakes itself at the cycles listed in wakes.
type pushComp struct {
	waker Waker
	next  uint64
	ticks []uint64
}

func (p *pushComp) SetWaker(w Waker) { p.waker = w }
func (p *pushComp) Tick(now uint64)  { p.ticks = append(p.ticks, now); p.next = Never }
func (p *pushComp) NextWake(now uint64) uint64 {
	if p.next <= now {
		return Never
	}
	return p.next
}

func TestWakeSetterTicksOnlyWhenDue(t *testing.T) {
	e := NewEngine()
	c := &pushComp{next: Never}
	e.Register(c)
	if c.waker == nil {
		t.Fatal("SetWaker not called at Register")
	}

	c.next = 5
	c.waker.Wake(5)
	e.RunUntil(func() bool { return e.Now() >= 10 })

	if len(c.ticks) != 1 || c.ticks[0] != 5 {
		t.Fatalf("ticks = %v, want [5]", c.ticks)
	}
	if e.TickedCycles != 1 {
		t.Fatalf("TickedCycles = %d, want 1", e.TickedCycles)
	}
	// Cycles 0-4 are jumped over, cycles 6-9 are idle advances; both count
	// as skipped.
	if e.SkippedCycles != 9 {
		t.Fatalf("SkippedCycles = %d, want 9", e.SkippedCycles)
	}
}

func TestWakeNeverDelays(t *testing.T) {
	e := NewEngine()
	c := &pushComp{next: Never}
	e.Register(c)
	c.next = 3
	c.waker.Wake(3)
	c.waker.Wake(8) // later wake must not override the earlier one
	e.RunUntil(func() bool { return e.Now() >= 5 })
	if len(c.ticks) != 1 || c.ticks[0] != 3 {
		t.Fatalf("ticks = %v, want [3]", c.ticks)
	}
}

func TestWakeDuringTickSameCycle(t *testing.T) {
	// A component waking a LATER-registered component for `now` must make it
	// tick this same cycle (matching strict mode, which would have reached
	// it anyway); waking an EARLIER-registered component for `now` must
	// defer to now+1 (strict mode had already passed it).
	e := NewEngine()
	early := &pushComp{next: Never}
	late := &pushComp{next: Never}
	e.Register(early)
	e.Register(&FuncComponent{TickFn: func(now uint64) {
		if now == 2 {
			early.next = now
			early.waker.Wake(now)
			late.next = now
			late.waker.Wake(now)
		}
	}, NextWakeFn: func(now uint64) uint64 {
		if now < 2 {
			return 2
		}
		return Never
	}})
	e.Register(late)

	e.RunUntil(func() bool { return e.Now() >= 6 })
	if len(late.ticks) == 0 || late.ticks[0] != 2 {
		t.Fatalf("late ticks = %v, want first at 2", late.ticks)
	}
	if len(early.ticks) == 0 || early.ticks[0] != 3 {
		t.Fatalf("early ticks = %v, want first at 3", early.ticks)
	}
}

// TestFuncComponentWakeRules pins FuncComponent's scheduling: it ticks
// exactly at the cycles NextWakeFn reports (an answer of now at Register
// time means the first cycle), a nil NextWakeFn means it never ticks under
// fast-forward, and strict mode ticks it every cycle regardless.
func TestFuncComponentWakeRules(t *testing.T) {
	run := func(fastForward, schedule bool) []uint64 {
		e := NewEngine()
		e.FastForward = fastForward
		var ticks []uint64
		var next uint64 // due in the first cycle, then every other cycle
		c := &FuncComponent{TickFn: func(now uint64) {
			ticks = append(ticks, now)
			next = now + 2
		}}
		if schedule {
			c.NextWakeFn = func(uint64) uint64 { return next }
		}
		e.Register(c)
		e.RunUntil(func() bool { return e.Now() >= 6 })
		return ticks
	}
	for _, tc := range []struct {
		fastForward, schedule bool
		want                  []uint64
	}{
		{true, false, nil},
		{false, false, []uint64{0, 1, 2, 3, 4, 5}},
		{true, true, []uint64{0, 2, 4}},
		{false, true, []uint64{0, 1, 2, 3, 4, 5}},
	} {
		if got := run(tc.fastForward, tc.schedule); !reflect.DeepEqual(got, tc.want) {
			t.Fatalf("fastForward=%v NextWakeFn=%v: ticked at %v, want %v",
				tc.fastForward, tc.schedule, got, tc.want)
		}
	}
}

func TestDelayQueueNotify(t *testing.T) {
	var got []uint64
	q := &DelayQueue{}
	q.SetNotify(func(at uint64) { got = append(got, at) })
	q.Schedule(7, func(uint64) {})
	q.Schedule(3, func(uint64) {})
	if len(got) != 2 || got[0] != 7 || got[1] != 3 {
		t.Fatalf("notify calls = %v, want [7 3]", got)
	}
}

func TestQuiescentEventDriven(t *testing.T) {
	e := NewEngine()
	c := &pushComp{next: Never}
	e.Register(c)
	if !e.Quiescent() {
		t.Fatal("idle engine not quiescent")
	}
	c.next = 4
	c.waker.Wake(4)
	if e.Quiescent() {
		t.Fatal("engine with pending wake reported quiescent")
	}
	e.RunUntil(func() bool { return e.Now() >= 5 })
	if !e.Quiescent() {
		t.Fatal("drained engine not quiescent")
	}
}
