package obs

import (
	"fmt"
	"slices"
	"strings"
)

// Region indices as cpu.Region numbers them. regionNames and regionGlyphs
// are indexed by them; a test in the root package pins both tables
// against cpu.Region.
const (
	regionParallel uint8 = iota
	regionBlocked
	regionCS
	regionDone
)

// regionGlyphs is the Gantt glyph per region; the done region (and any
// index past the table) draws as blank.
var regionGlyphs = [...]byte{'.', '#', 'C'}

// RegionGlyph returns the Gantt glyph of a cpu execution region.
func RegionGlyph(i uint8) byte {
	if int(i) < len(regionGlyphs) {
		return regionGlyphs[i]
	}
	return ' '
}

// regionSeg is a half-open interval [start, end) one thread spent in one
// region.
type regionSeg struct {
	start, end uint64
	region     uint8
}

// regionTrack is one thread's execution profile: its closed non-empty
// segments, and the region it is in now (open is false once it is done).
type regionTrack struct {
	segs []regionSeg
	cur  regionSeg
	open bool
}

// NewProfileRecorder returns a recorder that keeps only KindRegion events
// in a small ring: enough for Stats.Gantt, which reads the streaming
// Stats, not the ring.
func NewProfileRecorder() *Recorder {
	r := NewRecorder(1 << 10)
	r.kinds = 1 << KindRegion
	return r
}

func (s *Stats) observeRegion(ev *Event) {
	if s.regions == nil {
		s.regions = make(map[int32]*regionTrack)
	}
	tr := s.regions[ev.Node]
	if tr == nil {
		tr = &regionTrack{}
		s.regions[ev.Node] = tr
	}
	if tr.open && ev.At > tr.cur.start {
		tr.cur.end = ev.At
		tr.segs = append(tr.segs, tr.cur)
	}
	tr.cur = regionSeg{start: ev.At, region: ev.A}
	tr.open = ev.A != regionDone
}

// clipped calls f with each segment of the track that starts inside the
// window [0, window), cut at the window's end. A still-open region runs
// to the window's end.
func (tr *regionTrack) clipped(window uint64, f func(regionSeg)) {
	visit := func(sg regionSeg) {
		if sg.start >= window {
			return
		}
		sg.end = min(sg.end, window)
		f(sg)
	}
	for _, sg := range tr.segs {
		visit(sg)
	}
	if tr.open {
		sg := tr.cur
		sg.end = window
		visit(sg)
	}
}

// Gantt renders the execution profile of the paper's Fig. 10: an ASCII
// chart of the lowest-numbered `threads` threads over the cycle window
// [0, window), one column per colWidth cycles (0 selects 50), followed by
// the share of their time spent in each region. Glyphs: '.' parallel
// execution, '#' blocked (competition overhead plus waiting for other
// threads' critical sections), 'C' critical section.
func (s *Stats) Gantt(threads int, window, colWidth uint64) string {
	if colWidth == 0 {
		colWidth = 50
	}
	cols := int((window + colWidth - 1) / colWidth)
	ids := make([]int32, 0, len(s.regions))
	for id, tr := range s.regions {
		if len(tr.segs) > 0 || tr.open {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	if threads < len(ids) {
		ids = ids[:threads]
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "cycles 0..%d, one column = %d cycles ('.'=parallel '#'=blocked 'C'=critical section)\n", window, colWidth)
	var spent [256]uint64 // cycles per region over the rendered threads
	row := make([]byte, cols)
	for _, id := range ids {
		for i := range row {
			row[i] = ' '
		}
		s.regions[id].clipped(window, func(sg regionSeg) {
			spent[sg.region] += sg.end - sg.start
			ch := RegionGlyph(sg.region)
			for c := sg.start / colWidth; c <= (sg.end-1)/colWidth && int(c) < cols; c++ {
				// The dominant region of a column wins; blocked and CS
				// regions overwrite parallel to stay visible.
				if row[c] == ' ' || row[c] == '.' || ch == 'C' {
					row[c] = ch
				}
			}
		})
		fmt.Fprintf(&sb, "t%02d |%s|\n", id, row)
	}
	if total := float64(window) * float64(len(ids)); total > 0 {
		fmt.Fprintf(&sb, "breakdown: parallel %.1f%%  blocked %.1f%%  critical-section %.1f%%\n",
			100*float64(spent[regionParallel])/total,
			100*float64(spent[regionBlocked])/total,
			100*float64(spent[regionCS])/total)
	}
	return sb.String()
}
