package main

import "time"

// The host this benchmark runs on is shared: its speed drifts by 10-20%
// over tens of seconds as other tenants come and go, for the same
// instructions, and by more in bursts. Raw seconds taken a few minutes
// apart therefore differ by more than a change's effect. Each pass also
// times a fixed reference loop between its runs, and the time metrics
// are rescaled by how fast the host ran that loop during the pass:
//
//	value = host seconds × refNominal / median reference-loop time
//
// so they read in seconds of a host that runs the loop in refNominal.
// The loop is the benchmark's own code, so a change to the platform
// moves a rescaled metric by the same share as it moves host time.

// refNominal only sets the scale of the rescaled seconds: it is about
// the reference loop's time on a 2-vCPU Xeon guest under moderate load
// from other tenants (7.5 ms when they are quiet).
const refNominal = 10 * time.Millisecond

// The loop chases two random cycles, one dependent load at a time: a
// 4 MB one, larger than a core's private caches like the NoC and cache
// state of the simulated platform, and a 256 KB one that stays in them.
// Either alone roughly halved the drift of the platform's rescaled
// times; the pair did as well, and a little better over minute-long
// windows. Each takes about half of refNominal.
var (
	refBig, refSmall = refCycle(1 << 20), refCycle(1 << 16)
	refBigSteps      = uint32(42_000)
	refSmallSteps    = uint32(600_000)
	refSink          uint32 // keeps the loop's result live
)

// refCycle returns a single random cycle through n slots (Sattolo's
// shuffle), from a fixed xorshift generator so every run walks the same
// cycle.
func refCycle(n int) []uint32 {
	ring := make([]uint32, n)
	for i := range ring {
		ring[i] = uint32(i)
	}
	x := uint32(2463534242)
	for i := n - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		j := int(x % uint32(i))
		ring[i], ring[j] = ring[j], ring[i]
	}
	return ring
}

// referenceLoop runs the fixed reference work once and returns its host
// time.
func referenceLoop() time.Duration {
	t := time.Now()
	refSink += chase(refBig, refBigSteps) + chase(refSmall, refSmallSteps)
	return time.Since(t)
}

// chase follows ring for steps loads, mixing in branchy integer work.
func chase(ring []uint32, steps uint32) uint32 {
	i, acc := uint32(0), uint32(1)
	for k := uint32(0); k < steps; k++ {
		i = ring[i]
		if acc&1 == 0 {
			acc = acc>>1 ^ i
		} else {
			acc = acc*3 + k
		}
	}
	return acc
}

// hostSpeed is refNominal over the median of refs (reference-loop
// times in seconds): above 1 when the host ran the loop faster than
// nominal.
func hostSpeed(refs []float64) float64 {
	return ratio(refNominal.Seconds(), median(refs))
}
