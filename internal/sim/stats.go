package sim

// Counter is a simple monotonically increasing event counter.
type Counter struct {
	n uint64
}

// Inc adds one to the counter.
func (c *Counter) Inc() { c.n++ }

// Add adds delta to the counter.
func (c *Counter) Add(delta uint64) { c.n += delta }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n }

// Reset zeroes the counter.
func (c *Counter) Reset() { c.n = 0 }

// Accumulator tracks the sum, count, min and max of a stream of samples.
type Accumulator struct {
	sum   float64
	count uint64
	min   float64
	max   float64
}

// Observe records one sample.
func (a *Accumulator) Observe(v float64) {
	if a.count == 0 || v < a.min {
		a.min = v
	}
	if a.count == 0 || v > a.max {
		a.max = v
	}
	a.sum += v
	a.count++
}

// Count returns the number of samples observed.
func (a *Accumulator) Count() uint64 { return a.count }

// Sum returns the sum of all samples.
func (a *Accumulator) Sum() float64 { return a.sum }

// Mean returns the sample mean (0 when empty).
func (a *Accumulator) Mean() float64 {
	if a.count == 0 {
		return 0
	}
	return a.sum / float64(a.count)
}

// Min returns the smallest sample (0 when empty).
func (a *Accumulator) Min() float64 { return a.min }

// Max returns the largest sample (0 when empty).
func (a *Accumulator) Max() float64 { return a.max }

// State exports the accumulator's raw fields for checkpointing.
func (a *Accumulator) State() (sum float64, count uint64, min, max float64) {
	return a.sum, a.count, a.min, a.max
}

// SetState overwrites the accumulator with previously exported state.
func (a *Accumulator) SetState(sum float64, count uint64, min, max float64) {
	a.sum, a.count, a.min, a.max = sum, count, min, max
}

// Merge folds other into a.
func (a *Accumulator) Merge(other *Accumulator) {
	if other.count == 0 {
		return
	}
	if a.count == 0 {
		*a = *other
		return
	}
	if other.min < a.min {
		a.min = other.min
	}
	if other.max > a.max {
		a.max = other.max
	}
	a.sum += other.sum
	a.count += other.count
}
