package sim

import "fmt"

// WatchdogConfig tunes the simulation watchdog.
type WatchdogConfig struct {
	// Interval is the cycles between check sweeps (default 10 000). The
	// watchdog's NextWake keeps the event-driven engine advancing through
	// an otherwise-quiescent (deadlocked) simulation, so detection
	// latency is bounded by the budgets below plus one interval.
	Interval uint64
	// StallBudget is the cycles a busy simulation may go without any
	// forward progress before the watchdog trips (default 1 000 000).
	StallBudget uint64
	// BlockBudget is the cycles a thread may sit in one locking-path
	// state before it is reported blocked (default 2 000 000).
	BlockBudget uint64
}

// Validate fills unset fields with defaults.
func (c *WatchdogConfig) Validate() {
	if c.Interval == 0 {
		c.Interval = 10_000
	}
	if c.StallBudget == 0 {
		c.StallBudget = 1_000_000
	}
	if c.BlockBudget == 0 {
		c.BlockBudget = 2_000_000
	}
}

// WatchdogError is the typed verdict of a tripped watchdog: which
// invariant failed, when, and the diagnostic dump captured at the scene.
type WatchdogError struct {
	Cycle  uint64
	Check  string
	Detail string
	// Dump is the human-readable diagnostic snapshot (blocked-thread
	// table, packet census, recent events) captured when the check failed.
	Dump string
}

// Error implements error.
func (e *WatchdogError) Error() string {
	return fmt.Sprintf("sim: watchdog tripped at cycle %d: %s: %s", e.Cycle, e.Check, e.Detail)
}

// watchCheck is one registered invariant.
type watchCheck struct {
	name string
	fn   func(now uint64) error
}

// Watchdog periodically sweeps a set of invariant checks over the
// simulation (packet conservation, credit bounds, forward progress,
// blocked threads). On the first violation it captures a diagnostic
// dump, records a *WatchdogError and stops the run via the configured
// stop hook. It is a sim.Component; register it AFTER every subsystem so
// its checks see a settled inter-cycle state.
type Watchdog struct {
	cfg    WatchdogConfig
	next   uint64
	checks []watchCheck
	dump   func(now uint64) string
	stop   func()
	err    *WatchdogError
}

// NewWatchdog builds a watchdog; stop is invoked once when a check trips
// (typically Engine.Stop). cfg zero-values get defaults.
func NewWatchdog(cfg WatchdogConfig, stop func()) *Watchdog {
	cfg.Validate()
	return &Watchdog{cfg: cfg, stop: stop}
}

// Config returns the validated configuration.
func (w *Watchdog) Config() WatchdogConfig { return w.cfg }

// AddCheck registers an invariant; fn returns a non-nil error to trip
// the watchdog. Checks run in registration order every Interval cycles.
func (w *Watchdog) AddCheck(name string, fn func(now uint64) error) {
	w.checks = append(w.checks, watchCheck{name: name, fn: fn})
}

// SetDump installs the diagnostic snapshot renderer invoked when a
// check trips.
func (w *Watchdog) SetDump(fn func(now uint64) string) { w.dump = fn }

// Err returns the recorded violation, or nil while all checks hold.
func (w *Watchdog) Err() error {
	if w.err == nil {
		return nil // typed-nil guard: a nil *WatchdogError is not a nil error
	}
	return w.err
}

// Tick implements sim.Component.
func (w *Watchdog) Tick(now uint64) {
	if now < w.next || w.err != nil {
		return
	}
	w.next = now + w.cfg.Interval
	for _, c := range w.checks {
		if err := c.fn(now); err != nil {
			dump := ""
			if w.dump != nil {
				dump = w.dump(now)
			}
			w.err = &WatchdogError{Cycle: now, Check: c.name, Detail: err.Error(), Dump: dump}
			if w.stop != nil {
				w.stop()
			}
			return
		}
	}
}

// NextWake implements sim.Component: the next sweep cycle. This is what
// drags the clock through a deadlocked simulation in which every other
// component is quiescent forever.
func (w *Watchdog) NextWake(now uint64) uint64 {
	if w.err != nil {
		return Never
	}
	if w.next <= now {
		return now + 1
	}
	return w.next
}

// SetWaker implements sim.WakeSetter. The watchdog never needs waking:
// its schedule is fully described by NextWake.
func (w *Watchdog) SetWaker(Waker) {}

// NewStallCheck builds a forward-progress check over a monotone counter:
// sample() must advance at least once every budget cycles. Use a sum of
// lifetime activity counters (packets injected + delivered + timer ops
// scheduled) so any progress anywhere resets the clock.
func NewStallCheck(sample func() uint64, budget uint64) func(now uint64) error {
	var lastVal, lastChange uint64
	primed := false
	return func(now uint64) error {
		v := sample()
		if !primed || v != lastVal {
			primed = true
			lastVal = v
			lastChange = now
			return nil
		}
		if now-lastChange > budget {
			return fmt.Errorf("no forward progress for %d cycles (counter stuck at %d since cycle %d)",
				now-lastChange, v, lastChange)
		}
		return nil
	}
}
