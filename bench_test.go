package repro

// The benchmark harness: one testing.B benchmark per table and figure of
// the paper's evaluation. Each benchmark regenerates its experiment and
// reports the headline quantities as custom metrics, so
//
//	go test -bench=. -benchmem
//
// reproduces the paper's result set end to end. The benchmarks default to
// the quick benchmark subset at reduced iteration counts so the whole
// suite completes in minutes; run cmd/experiments for full-length,
// all-benchmark runs.

import (
	"fmt"
	"testing"

	"repro/internal/experiments"
)

// benchOptions are the reduced-scale settings used by the bench harness.
func benchOptions(quick bool) experiments.Options {
	return experiments.Options{Threads: 64, Seed: 1, Scale: 0.5, Quick: quick}
}

// runSuiteOnce executes the shared A/B suite underlying Figs. 2/11-14 and
// Table 3, memoised across benchmarks within one `go test -bench` process.
var suiteCache []experiments.BenchResult

func suiteResults(b *testing.B) []experiments.BenchResult {
	b.Helper()
	if suiteCache != nil {
		return suiteCache
	}
	rs, err := experiments.RunSuite(benchOptions(true), nil)
	if err != nil {
		b.Fatal(err)
	}
	suiteCache = rs
	return rs
}

// BenchmarkFig2 regenerates the motivation characterisation: CS vs COH
// fractions of ROI time under the baseline queue spinlock.
func BenchmarkFig2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rs := suiteResults(b)
		rows := experiments.Fig2(rs)
		var cs, coh float64
		for _, r := range rows {
			cs += r.CSFraction
			coh += r.COHFraction
		}
		b.ReportMetric(100*cs/float64(len(rows)), "avg-CS-%")
		b.ReportMetric(100*coh/float64(len(rows)), "avg-COH-%")
	}
}

// BenchmarkFig10 regenerates the bodytrack execution profile comparison.
func BenchmarkFig10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig10(benchOptions(true))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*r.ROIImprovement, "ROI-impr-%")
	}
}

// BenchmarkFig11 regenerates COH reduction and spin-phase entry gains.
func BenchmarkFig11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig11(suiteResults(b))
		var coh, gain float64
		for _, r := range rows {
			coh += r.COHImprovement
			gain += r.OCORSpinFrac - r.BaseSpinFrac
		}
		b.ReportMetric(100*coh/float64(len(rows)), "avg-COH-impr-%")
		b.ReportMetric(100*gain/float64(len(rows)), "avg-spin-gain-pts")
	}
}

// BenchmarkFig12 regenerates the benchmark characterisation (normalised
// CS access rate and network utilisation).
func BenchmarkFig12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig12(suiteResults(b))
		var cs, net float64
		for _, r := range rows {
			cs += r.CSAccessRate
			net += r.NetUtilisation
		}
		b.ReportMetric(100*cs/float64(len(rows)), "avg-CS-rate-%")
		b.ReportMetric(100*net/float64(len(rows)), "avg-net-util-%")
	}
}

// BenchmarkFig13 regenerates the relative critical-section execution time
// (OCOR should leave it essentially unchanged).
func BenchmarkFig13(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig13(suiteResults(b))
		var rel float64
		for _, r := range rows {
			rel += r.Relative
		}
		b.ReportMetric(rel/float64(len(rows)), "avg-relative-CS-time")
	}
}

// BenchmarkFig14 regenerates COH fractions of ROI and the ROI finish-time
// improvement.
func BenchmarkFig14(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig14(suiteResults(b))
		var roi float64
		for _, r := range rows {
			roi += r.ROIImprovement
		}
		b.ReportMetric(100*roi/float64(len(rows)), "avg-ROI-impr-%")
	}
}

// BenchmarkFig15 regenerates the thread-count scalability sweep
// (4/16/32/64 threads).
func BenchmarkFig15(b *testing.B) {
	for i := 0; i < b.N; i++ {
		opt := benchOptions(true)
		opt.Scale = 0.25
		rows, err := experiments.Fig15(opt, nil)
		if err != nil {
			b.Fatal(err)
		}
		// Report the 64-thread average normalised COH (paper: the gain is
		// largest at 64 threads).
		var sum float64
		var n int
		for _, r := range rows {
			if r.Threads == 64 {
				sum += r.NormalizedCOH
				n++
			}
		}
		if n > 0 {
			b.ReportMetric(100*sum/float64(n), "avg-norm-COH-64t-%")
		}
	}
}

// BenchmarkFig16 regenerates the priority-level sensitivity sweep for the
// two extreme benchmarks.
func BenchmarkFig16(b *testing.B) {
	for i := 0; i < b.N; i++ {
		opt := benchOptions(true)
		opt.Scale = 0.25
		rows, err := experiments.Fig16(opt, nil)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Levels == 8 && r.Name == "botss" {
				b.ReportMetric(100*r.COHImprovement, "botss-8lvl-COH-impr-%")
			}
		}
	}
}

// BenchmarkTable3 regenerates the summary table averages.
func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.Table3(suiteResults(b))
		b.ReportMetric(100*s.AvgCOH["Overall"], "avg-COH-impr-%")
		b.ReportMetric(100*s.AvgROI["Overall"], "avg-ROI-impr-%")
	}
}

// BenchmarkSimulatorThroughput measures raw simulation speed: cycles
// simulated per wall-clock second on a contended 64-core workload.
func BenchmarkSimulatorThroughput(b *testing.B) {
	p, err := Benchmark("body")
	if err != nil {
		b.Fatal(err)
	}
	p = p.Scale(0.25)
	var cycles uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := RunBenchmark(p, 64, true, uint64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		cycles += res.ROIFinish
	}
	b.ReportMetric(float64(cycles)/float64(b.N), "cycles/run")
}

// BenchmarkAblation measures each Table 1 rule's contribution on the most
// contended benchmark (the design-choice ablation DESIGN.md calls out).
func BenchmarkAblation(b *testing.B) {
	p, err := Benchmark("botss")
	if err != nil {
		b.Fatal(err)
	}
	p = p.Scale(0.5)
	for i := 0; i < b.N; i++ {
		rows, err := Ablate(p, 64, 1)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			switch r.Variant {
			case AblationFull:
				b.ReportMetric(100*r.COHImprovement, "full-COH-impr-%")
			case AblationNoWakeupLast:
				b.ReportMetric(100*r.COHImprovement, "no-wakeup-last-COH-impr-%")
			case AblationNoLeastRTR:
				b.ReportMetric(100*r.COHImprovement, "no-least-rtr-COH-impr-%")
			}
		}
	}
}

// newSink keeps BenchmarkNew's platforms live so the calls are not
// optimised away.
var newSink *System

// BenchmarkNew measures platform set-up alone: repro.New for 64 threads
// of imag on the paper's 8x8 mesh and on a 64x64 mesh, where 4,032 of the
// 4,096 nodes host no core.
func BenchmarkNew(b *testing.B) {
	p, err := Benchmark("imag")
	if err != nil {
		b.Fatal(err)
	}
	p = p.Scale(0.25)
	for _, side := range []int{8, 64} {
		b.Run(fmt.Sprintf("mesh=%dx%d", side, side), func(b *testing.B) {
			cfg := Config{Benchmark: p, Threads: 64, MeshWidth: side, MeshHeight: side, OCOR: true, Seed: 1}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sys, err := New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				newSink = sys
			}
		})
	}
}
