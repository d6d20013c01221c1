package sim

import (
	"fmt"
	"sort"
)

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

// Histogram is a fixed-bucket latency histogram with power-of-two bucket
// boundaries: [0,1), [1,2), [2,4), [4,8), ...
type Histogram struct {
	buckets []uint64
	acc     Accumulator
}

// NewHistogram returns a histogram with n power-of-two buckets; samples that
// overflow the last boundary land in the final bucket.
func NewHistogram(n int) *Histogram {
	if n < 2 {
		n = 2
	}
	return &Histogram{buckets: make([]uint64, n)}
}

// Observe records one sample.
func (h *Histogram) Observe(v uint64) {
	h.acc.Observe(float64(v))
	b := 0
	for bound := uint64(1); v >= bound && b < len(h.buckets)-1; bound <<= 1 {
		b++
	}
	h.buckets[b]++
}

// State exports the histogram's bucket counts and accumulator for
// checkpointing. The returned slice aliases internal storage; callers
// treat it as read-only.
func (h *Histogram) State() (buckets []uint64, acc *Accumulator) {
	return h.buckets, &h.acc
}

// SetState overwrites the histogram's buckets (copied; the bucket count
// must match the histogram's) and accumulator.
func (h *Histogram) SetState(buckets []uint64, sum float64, count uint64, min, max float64) {
	copy(h.buckets, buckets)
	h.acc.SetState(sum, count, min, max)
}

// Count returns the number of samples.
func (h *Histogram) Count() uint64 { return h.acc.Count() }

// Mean returns the mean of all samples.
func (h *Histogram) Mean() float64 { return h.acc.Mean() }

// Max returns the largest sample.
func (h *Histogram) Max() float64 { return h.acc.Max() }

// Quantile returns the lower bound of the power-of-two bucket the
// q-quantile (0 <= q <= 1) falls in: 2^(i-1) for bucket [2^(i-1), 2^i),
// so the true quantile may be up to twice the answer (one sample of 1000
// reports 512, one of 3 reports 2). The [0,1) bucket reports 1, and the
// final overflow bucket its lower bound. obs.LogHist.Quantile reports the
// bucket's upper bound instead (1024 for the sample of 1000).
func (h *Histogram) Quantile(q float64) uint64 {
	total := h.acc.Count()
	if total == 0 {
		return 0
	}
	target := uint64(q * float64(total))
	if target >= total {
		target = total - 1
	}
	var cum uint64
	bound := uint64(1)
	for i, c := range h.buckets {
		cum += c
		if cum > target {
			if i == 0 {
				return 1
			}
			return bound
		}
		if i > 0 {
			bound <<= 1
		}
	}
	return bound
}

// String renders the non-empty buckets.
func (h *Histogram) String() string {
	s := ""
	bound := uint64(1)
	lo := uint64(0)
	for i, c := range h.buckets {
		if c > 0 {
			s += fmt.Sprintf("[%d,%d): %d  ", lo, bound, c)
		}
		lo = bound
		if i > 0 {
			bound <<= 1
		} else {
			bound = 2
		}
	}
	return s
}

// Percentile computes the p-th percentile (0-100) of raw samples. It is a
// helper for analyses that keep full sample slices.
func Percentile(samples []uint64, p float64) uint64 {
	if len(samples) == 0 {
		return 0
	}
	sorted := make([]uint64, len(samples))
	copy(sorted, samples)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(p / 100 * float64(len(sorted)-1))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}
