package repro

import (
	"strings"
	"testing"

	"repro/internal/cpu"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/workload"
)

// smallProfile is a fast-running contended workload for integration tests.
func smallProfile() workload.Profile {
	return workload.Profile{
		Name: "itest", Suite: "TEST",
		ComputeGap: 800, GapMemOps: 4, WorkingSet: 64,
		SharedFrac: 0.1, GlobalBlocks: 32, SharedWriteFrac: 0.2,
		Locks: 2, CSLen: 60, CSMemOps: 1, Iterations: 6,
	}
}

func TestMeshFor(t *testing.T) {
	cases := []struct{ cores, w, h int }{
		{4, 2, 2}, {16, 4, 4}, {32, 8, 4}, {64, 8, 8}, {9, 3, 3}, {10, 4, 3},
	}
	for _, c := range cases {
		w, h := MeshFor(c.cores)
		if w != c.w || h != c.h {
			t.Fatalf("MeshFor(%d) = %dx%d, want %dx%d", c.cores, w, h, c.w, c.h)
		}
		if w*h < c.cores {
			t.Fatalf("MeshFor(%d) too small", c.cores)
		}
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Benchmark: smallProfile(), Threads: 99, MeshWidth: 2, MeshHeight: 2}); err == nil {
		t.Fatal("oversubscribed config accepted")
	}
}

func TestRunCompletes(t *testing.T) {
	sys, err := New(Config{Benchmark: smallProfile(), Threads: 16, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.ROIFinish == 0 {
		t.Fatal("zero ROI")
	}
	if res.Acquisitions != 16*6 {
		t.Fatalf("acquisitions = %d, want %d", res.Acquisitions, 16*6)
	}
	if res.TotalBT != res.TotalHeld+res.TotalCOH {
		t.Fatal("Eq. 1 decomposition broken: BT != held + COH")
	}
	// The platform must be quiescent and coherent at the end.
	if sys.Net.Busy() {
		t.Fatal("network still busy after completion")
	}
	if err := sys.Mem.CheckCoherence(); err != nil {
		t.Fatal(err)
	}
	if sys.Kernel.Pending() != 0 {
		t.Fatal("kernel operations still pending")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() metrics.Results {
		r, err := RunBenchmark(smallProfile(), 16, true, 7)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(), run()
	if a.ROIFinish != b.ROIFinish || a.TotalCOH != b.TotalCOH || a.TotalBT != b.TotalBT ||
		a.SpinAcquires != b.SpinAcquires || a.TotalRetries != b.TotalRetries {
		t.Fatalf("same seed diverged:\n%+v\n%+v", a, b)
	}
	c, err := RunBenchmark(smallProfile(), 16, true, 8)
	if err != nil {
		t.Fatal(err)
	}
	if c.ROIFinish == a.ROIFinish && c.TotalCOH == a.TotalCOH && c.TotalRetries == a.TotalRetries {
		t.Fatal("different seeds produced identical runs (suspicious)")
	}
}

func TestCompareSharesWorkload(t *testing.T) {
	base, ocor, err := Compare(smallProfile(), 16, 5)
	if err != nil {
		t.Fatal(err)
	}
	if base.OCOR || !ocor.OCOR {
		t.Fatal("config flags wrong")
	}
	// Identical workloads: same acquisition count in both runs.
	if base.Acquisitions != ocor.Acquisitions {
		t.Fatalf("acquisitions differ: %d vs %d", base.Acquisitions, ocor.Acquisitions)
	}
	// OCOR must not slow the run down dramatically on a contended profile.
	if float64(ocor.ROIFinish) > 1.25*float64(base.ROIFinish) {
		t.Fatalf("OCOR made things much worse: %d vs %d", ocor.ROIFinish, base.ROIFinish)
	}
}

func TestOCORHelpsUnderContention(t *testing.T) {
	// A deeply contended profile where the baseline queue spinlock pays
	// heavy sleep costs: OCOR must reduce COH and sleep entries.
	p := smallProfile()
	p.Locks = 1
	p.Iterations = 8
	base, ocor, err := Compare(p, 16, 2)
	if err != nil {
		t.Fatal(err)
	}
	if base.TotalSleeps == 0 {
		t.Skip("baseline not contended enough to sleep on this host config")
	}
	if ocor.TotalCOH >= base.TotalCOH {
		t.Fatalf("OCOR did not reduce COH: %d vs %d", ocor.TotalCOH, base.TotalCOH)
	}
	if ocor.SpinFraction < base.SpinFraction {
		t.Fatalf("OCOR reduced spin-phase entries: %f vs %f", ocor.SpinFraction, base.SpinFraction)
	}
}

func TestCustomPrograms(t *testing.T) {
	progs := []cpu.Program{
		{{Kind: cpu.OpCompute, Arg: 100}, {Kind: cpu.OpLock, Arg: 0}, {Kind: cpu.OpCompute, Arg: 10}, {Kind: cpu.OpUnlock, Arg: 0}},
		{{Kind: cpu.OpCompute, Arg: 50}, {Kind: cpu.OpLock, Arg: 0}, {Kind: cpu.OpCompute, Arg: 10}, {Kind: cpu.OpUnlock, Arg: 0}},
	}
	sys, err := New(Config{Programs: progs, Threads: 2, MeshWidth: 2, MeshHeight: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Benchmark != "custom" || res.Acquisitions != 2 {
		t.Fatalf("custom run: %+v", res)
	}
}

func TestInvalidCustomProgram(t *testing.T) {
	progs := []cpu.Program{{{Kind: cpu.OpLock, Arg: 0}}} // never unlocks
	if _, err := New(Config{Programs: progs, MeshWidth: 2, MeshHeight: 2}); err == nil {
		t.Fatal("invalid program accepted")
	}
}

// TestTraceRecording renders the execution profile from a region-only
// recorder and from a recorder of every kind whose tiny ring evicts
// nearly all events: the Gantt comes from the streaming Stats, so both
// agree.
func TestTraceRecording(t *testing.T) {
	gantt := func(rec *obs.Recorder) string {
		sys, err := New(Config{Benchmark: smallProfile(), Threads: 16, Seed: 3, Obs: rec})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run()
		if err != nil {
			t.Fatal(err)
		}
		return rec.Stats.Gantt(8, res.ROIFinish, res.ROIFinish/40+1)
	}
	prof := obs.NewProfileRecorder()
	out := gantt(prof)
	if !strings.Contains(out, "t00") || !strings.Contains(out, "t07") || strings.Contains(out, "t08") ||
		!strings.Contains(out, "breakdown:") {
		t.Fatalf("trace output wrong:\n%s", out)
	}
	tiny := obs.NewRecorder(16)
	if got := gantt(tiny); got != out {
		t.Fatalf("profile differs between recorders:\n%s\nvs\n%s", out, got)
	}
	if tiny.Dropped() == 0 {
		t.Fatal("tiny ring never wrapped")
	}
}

func TestMaxCyclesGuard(t *testing.T) {
	sys, err := New(Config{Benchmark: smallProfile(), Threads: 16, Seed: 3, MaxCycles: 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(); err == nil {
		t.Fatal("MaxCycles guard did not trip")
	}
}

func TestCatalogAccessors(t *testing.T) {
	if len(Catalog()) != 25 {
		t.Fatal("catalog size")
	}
	if _, err := Benchmark("botss"); err != nil {
		t.Fatal(err)
	}
	if _, err := Benchmark("nope"); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestPriorityLevelsConfig(t *testing.T) {
	for _, lv := range []int{1, 4, 16} {
		sys, err := New(Config{Benchmark: smallProfile(), Threads: 16, OCOR: true, PriorityLevels: lv, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if got := sys.Kernel.Cfg.Policy.LockLevels; got != lv {
			t.Fatalf("levels = %d, want %d", got, lv)
		}
		if _, err := sys.Run(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestScalabilityShape(t *testing.T) {
	// COH (absolute) must grow with thread count on a contended profile —
	// the premise of Fig. 15.
	p := smallProfile()
	var prev uint64
	for _, threads := range []int{4, 16} {
		res, err := RunBenchmark(p, threads, false, 3)
		if err != nil {
			t.Fatal(err)
		}
		if res.TotalCOH < prev {
			t.Fatalf("COH fell from %d to %d when scaling to %d threads", prev, res.TotalCOH, threads)
		}
		prev = res.TotalCOH
	}
}

func TestAblationVariants(t *testing.T) {
	p := smallProfile()
	p.Locks = 1
	p.Iterations = 4
	rows, err := Ablate(p, 16, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(AblationVariants()) {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Variant != AblationBaseline {
		t.Fatal("baseline must come first")
	}
	for _, r := range rows[1:] {
		if !r.Results.OCOR {
			t.Fatalf("%s ran without OCOR", r.Variant)
		}
	}
	// The full rule set must not lose to the baseline on a contended
	// profile.
	for _, r := range rows {
		if r.Variant == AblationFull && r.COHImprovement < 0 {
			t.Fatalf("full OCOR worse than baseline: %f", r.COHImprovement)
		}
	}
	if _, err := RunAblation(p, 16, AblationVariant("nonsense"), 1); err == nil {
		t.Fatal("unknown variant accepted")
	}
}

func TestEq1InvariantProperty(t *testing.T) {
	// Property: for any small random workload, the blocking-time
	// decomposition BT = heldByOthers + COH holds exactly, acquisitions
	// match the programs, and the run is coherent at the end.
	if testing.Short() {
		t.Skip("property test is slow")
	}
	for seed := uint64(1); seed <= 4; seed++ {
		p := workload.Profile{
			Name: "prop", ComputeGap: 300 + int(seed)*200, GapMemOps: int(seed % 4),
			WorkingSet: 32, SharedFrac: 0.2, GlobalBlocks: 16, SharedWriteFrac: 0.3,
			Locks: 1 + int(seed)%3, CSLen: 40, CSMemOps: 1, Iterations: 3 + int(seed)%3,
		}
		for _, ocor := range []bool{false, true} {
			sys, err := New(Config{Benchmark: p, Threads: 9, MeshWidth: 3, MeshHeight: 3, OCOR: ocor, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			res, err := sys.Run()
			if err != nil {
				t.Fatalf("seed %d ocor %v: %v", seed, ocor, err)
			}
			if res.TotalBT != res.TotalHeld+res.TotalCOH {
				t.Fatalf("seed %d ocor %v: BT %d != held %d + COH %d", seed, ocor, res.TotalBT, res.TotalHeld, res.TotalCOH)
			}
			if res.Acquisitions != uint64(9*p.Iterations) {
				t.Fatalf("seed %d: acquisitions %d", seed, res.Acquisitions)
			}
			if err := sys.Mem.CheckCoherence(); err != nil {
				t.Fatalf("seed %d ocor %v: %v", seed, ocor, err)
			}
			if res.Fairness <= 0 || res.Fairness > 1.0001 {
				t.Fatalf("fairness out of range: %f", res.Fairness)
			}
		}
	}
}

func TestBarrierWorkloadEndToEnd(t *testing.T) {
	// The Fig. 1 wave structure: cohorts synchronize, then compete.
	p := smallProfile()
	p.Barrier = true
	p.Locks = 2
	p.Iterations = 4
	res, err := RunBenchmark(p, 8, false, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Acquisitions != 8*4 {
		t.Fatalf("acquisitions = %d", res.Acquisitions)
	}
}
