package obs

import (
	"strings"
	"testing"
)

// spent sums the cycles one thread spent in each region over [0, window).
func spent(s *Stats, thread int32, window uint64) map[uint8]uint64 {
	out := make(map[uint8]uint64)
	if tr := s.regions[thread]; tr != nil {
		tr.clipped(window, func(sg regionSeg) { out[sg.region] += sg.end - sg.start })
	}
	return out
}

func TestProfileSegments(t *testing.T) {
	r := NewProfileRecorder()
	r.Region(0, 0, regionParallel)
	r.Region(100, 0, regionBlocked)
	r.Region(250, 0, regionCS)
	r.Region(300, 0, regionParallel)
	r.Region(1000, 0, regionDone)

	bd := spent(&r.Stats, 0, 1000)
	if bd[regionParallel] != 100+700 {
		t.Fatalf("parallel = %d", bd[regionParallel])
	}
	if bd[regionBlocked] != 150 {
		t.Fatalf("blocked = %d", bd[regionBlocked])
	}
	if bd[regionCS] != 50 {
		t.Fatalf("cs = %d", bd[regionCS])
	}
}

func TestBreakdownWindowClipping(t *testing.T) {
	r := NewProfileRecorder()
	r.Region(0, 1, regionBlocked)
	r.Region(1000, 1, regionDone)
	if bd := spent(&r.Stats, 1, 400); bd[regionBlocked] != 400 {
		t.Fatalf("clipped blocked = %d", bd[regionBlocked])
	}
}

func TestOpenRegionRunsToWindowEnd(t *testing.T) {
	r := NewProfileRecorder()
	r.Region(20, 2, regionParallel)
	if bd := spent(&r.Stats, 2, 500); bd[regionParallel] != 480 {
		t.Fatalf("open region not drawn to the window end: %d", bd[regionParallel])
	}
	if got := r.Stats.Gantt(1, 500, 100); !strings.Contains(got, "t02 |.....|") {
		t.Fatalf("open region row:\n%s", got)
	}
}

func TestGanttThreadsSorted(t *testing.T) {
	r := NewProfileRecorder()
	for _, th := range []int{5, 1, 3} {
		r.Region(0, th, regionParallel)
		r.Region(10, th, regionDone)
	}
	got := r.Stats.Gantt(3, 10, 10)
	want := "cycles 0..10, one column = 10 cycles ('.'=parallel '#'=blocked 'C'=critical section)\n" +
		"t01 |.|\nt03 |.|\nt05 |.|\n" +
		"breakdown: parallel 100.0%  blocked 0.0%  critical-section 0.0%\n"
	if got != want {
		t.Fatalf("gantt:\n%s\nwant:\n%s", got, want)
	}
}

func TestGantt(t *testing.T) {
	r := NewProfileRecorder()
	for th := 0; th < 3; th++ {
		r.Region(0, th, regionParallel)
		r.Region(300, th, regionBlocked)
		r.Region(600, th, regionCS)
		r.Region(700, th, regionParallel)
		r.Region(1200, th, regionDone)
	}
	out := r.Stats.Gantt(3, 1200, 100)
	if !strings.Contains(out, "t00 |...###C.....|") || !strings.Contains(out, "t02 |...###C.....|") {
		t.Fatalf("missing thread rows:\n%s", out)
	}
	if !strings.Contains(out, "breakdown: parallel 66.7%  blocked 25.0%  critical-section 8.3%") {
		t.Fatalf("missing breakdown line:\n%s", out)
	}
	// Thread limit respected.
	if limited := r.Stats.Gantt(2, 1200, 100); strings.Contains(limited, "t02") {
		t.Fatal("thread limit ignored")
	}
}

func TestGanttZeroColWidth(t *testing.T) {
	r := NewProfileRecorder()
	r.Region(0, 0, regionParallel)
	r.Region(100, 0, regionDone)
	// Falls back to 50-cycle columns.
	if out := r.Stats.Gantt(1, 100, 0); !strings.Contains(out, "one column = 50 cycles") || !strings.Contains(out, "t00 |..|") {
		t.Fatalf("default width render:\n%s", out)
	}
}

func TestZeroLengthSegmentsDropped(t *testing.T) {
	r := NewProfileRecorder()
	r.Region(50, 0, regionParallel)
	r.Region(50, 0, regionBlocked) // zero-length parallel segment
	r.Region(60, 0, regionDone)
	bd := spent(&r.Stats, 0, 100)
	if bd[regionParallel] != 0 {
		t.Fatalf("zero-length segment kept: %d", bd[regionParallel])
	}
	if bd[regionBlocked] != 10 {
		t.Fatalf("blocked = %d", bd[regionBlocked])
	}
}

func TestDoneOnlyThreadRecordsNothing(t *testing.T) {
	// A thread whose only observed transition is the done region (it never
	// ran) gets no row, and neither does a zero-length run.
	r := NewProfileRecorder()
	r.Region(500, 3, regionDone)
	r.Region(7, 4, regionParallel)
	r.Region(7, 4, regionDone)
	want := "cycles 0..1000, one column = 100 cycles ('.'=parallel '#'=blocked 'C'=critical section)\n"
	if got := r.Stats.Gantt(16, 1000, 100); got != want {
		t.Fatalf("gantt of threads that never ran:\n%s", got)
	}
}

func TestProfileRecorderKeepsOnlyRegions(t *testing.T) {
	r := NewProfileRecorder()
	r.Hop(3, 0, 1, 1, 0, 0, 0)
	r.Region(4, 0, regionParallel)
	if r.Len() != 1 || r.Stats.PerHop.Count() != 0 {
		t.Fatalf("profile recorder kept %d events, %d hops", r.Len(), r.Stats.PerHop.Count())
	}
}
