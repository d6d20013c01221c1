package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
)

// Track pids of the exported trace. Perfetto renders one process group per
// pid with one track per tid.
const (
	pidRouters = 1 // tid = router id: per-hop packet residency slices
	pidThreads = 2 // tid = thread id: lock-path state slices
	pidLocks   = 3 // tid = lock id: holder intervals
	pidRegions = 4 // tid = thread id: coarse execution regions
)

// threadStateNames mirrors kernel.ThreadState.String; duplicated here so
// the exporter does not create an obs -> kernel import cycle (kernel
// imports obs). A unit test in the root package pins the two in sync.
var threadStateNames = [...]string{"idle", "spinning", "sleep-prep", "sleeping", "waking", "holding"}

// regionNames mirrors cpu.Region.String for the same reason.
var regionNames = [...]string{"parallel", "blocked", "cs", "done"}

func nameOf(names []string, i uint8) string {
	if int(i) < len(names) {
		return names[i]
	}
	return fmt.Sprintf("state%d", i)
}

// ThreadStateName returns the exporter's label for a kernel thread state.
// Exposed so a test outside this package can pin it against
// kernel.ThreadState.String.
func ThreadStateName(i uint8) string { return nameOf(threadStateNames[:], i) }

// RegionName returns the exporter's label for a cpu execution region,
// pinned against cpu.Region.String by the same test.
func RegionName(i uint8) string { return nameOf(regionNames[:], i) }

// traceEvent is one Chrome trace-event JSON object.
type traceEvent struct {
	Name string         `json:"name,omitempty"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   uint64         `json:"ts"`
	Dur  uint64         `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int64          `json:"tid"`
	ID   uint64         `json:"id,omitempty"`
	BP   string         `json:"bp,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteTrace exports events as a Chrome trace-event JSON object loadable in
// ui.perfetto.dev (or chrome://tracing). Timestamps are simulation cycles
// interpreted as microseconds. Alongside the render-oriented traceEvents,
// the file embeds the raw event stream under "reproEvents" (Perfetto
// ignores unknown keys), so the same file feeds cmd/traceq; "reproDropped"
// records how many events the ring buffer evicted before export.
//
// Tracks: one per router (per-hop packet residency), one per thread
// (lock-path states), one per lock (holder intervals) and one per thread
// for coarse regions. Each completed acquisition additionally emits a flow
// (arrows in the UI) from the winning try-lock request's first router hop,
// through every hop of the request and of the returning grant, to the
// acquire on the thread's track.
func WriteTrace(w io.Writer, evs []Event, dropped uint64) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := fmt.Fprintf(bw, "{\"displayTimeUnit\":\"ms\",\"reproDropped\":%d,\"traceEvents\":[\n", dropped); err != nil {
		return err
	}
	enc := &eventEncoder{bw: bw}

	// Pass 1: which packets belong to an acquisition flow, and how far does
	// the clock run.
	flowPkts := make(map[uint64]bool)
	var maxTs uint64
	for i := range evs {
		ev := &evs[i]
		if ev.At > maxTs {
			maxTs = ev.At
		}
		if ev.Kind == KindAcquire {
			if ev.Pkt != 0 {
				flowPkts[ev.Pkt] = true
			}
			if ev.Pkt2 != 0 {
				flowPkts[ev.Pkt2] = true
			}
		}
	}

	// Pass 2: slices. Open state/region intervals close at maxTs; hop
	// slices for flow packets remember their (ts, router) anchors.
	type anchor struct {
		ts     uint64
		router int32
	}
	hops := make(map[uint64][]anchor)
	type open struct {
		at    uint64
		state uint8
		set   bool
	}
	threadState := make(map[int32]*open)
	threadRegion := make(map[int32]*open)
	lockHeld := make(map[uint64]struct {
		at     uint64
		thread int32
	})
	seenRouter := make(map[int32]bool)

	slice := func(pid int, tid int64, name string, ts, end uint64, args map[string]any) error {
		dur := end - ts
		if dur == 0 {
			dur = 1
		}
		return enc.emit(traceEvent{Name: name, Ph: "X", Ts: ts, Dur: dur, Pid: pid, Tid: tid, Args: args})
	}
	closeState := func(pid int, tid int32, o *open, names []string, end uint64) error {
		if !o.set {
			return nil
		}
		return slice(pid, int64(tid), nameOf(names, o.state), o.at, end, nil)
	}

	for i := range evs {
		ev := &evs[i]
		switch ev.Kind {
		case KindHop:
			seenRouter[ev.Node] = true
			ts := ev.At - ev.V1
			if flowPkts[ev.Pkt] {
				hops[ev.Pkt] = append(hops[ev.Pkt], anchor{ts: ts, router: ev.Node})
			}
			err := slice(pidRouters, int64(ev.Node), fmt.Sprintf("pkt#%d", ev.Pkt), ts, ev.At,
				map[string]any{"in": ev.A, "out": ev.B, "vc": ev.C})
			if err != nil {
				return err
			}
		case KindThreadState:
			o := threadState[ev.Node]
			if o == nil {
				o = &open{}
				threadState[ev.Node] = o
			}
			// The idle state renders as a gap, not a slice.
			if o.set && nameOf(threadStateNames[:], o.state) != "idle" {
				if err := closeState(pidThreads, ev.Node, o, threadStateNames[:], ev.At); err != nil {
					return err
				}
			}
			*o = open{at: ev.At, state: ev.A, set: ev.A != 0}
		case KindRegion:
			o := threadRegion[ev.Node]
			if o == nil {
				o = &open{}
				threadRegion[ev.Node] = o
			}
			if o.set {
				if err := closeState(pidRegions, ev.Node, o, regionNames[:], ev.At); err != nil {
					return err
				}
			}
			// The done region ends the track.
			*o = open{at: ev.At, state: ev.A, set: ev.A != regionDone}
		case KindAcquire:
			lockHeld[ev.V1] = struct {
				at     uint64
				thread int32
			}{at: ev.At, thread: ev.Node}
		case KindRelease:
			if h, ok := lockHeld[ev.V1]; ok && h.thread == ev.Node {
				delete(lockHeld, ev.V1)
				err := slice(pidLocks, int64(ev.V1), fmt.Sprintf("held by t%d", ev.Node), h.at, ev.At, nil)
				if err != nil {
					return err
				}
			}
		}
	}
	for _, tid := range sortedKeys(threadState) {
		if err := closeState(pidThreads, tid, threadState[tid], threadStateNames[:], maxTs); err != nil {
			return err
		}
	}
	for _, tid := range sortedKeys(threadRegion) {
		if err := closeState(pidRegions, tid, threadRegion[tid], regionNames[:], maxTs); err != nil {
			return err
		}
	}

	// Pass 3: flows. One flow per acquisition, id = grant packet id,
	// stepping request hops then grant hops and finishing at the acquire.
	for i := range evs {
		ev := &evs[i]
		if ev.Kind != KindAcquire || ev.Pkt == 0 {
			continue
		}
		path := append(append([]anchor{}, hops[ev.Pkt2]...), hops[ev.Pkt]...)
		if len(path) == 0 {
			continue // home node == requester: the packets never hopped
		}
		for j, a := range path {
			ph := "t"
			if j == 0 {
				ph = "s"
			}
			err := enc.emit(traceEvent{Name: "acquisition", Cat: "lock", Ph: ph, ID: ev.Pkt,
				Ts: a.ts, Pid: pidRouters, Tid: int64(a.router)})
			if err != nil {
				return err
			}
		}
		err := enc.emit(traceEvent{Name: "acquisition", Cat: "lock", Ph: "f", BP: "e", ID: ev.Pkt,
			Ts: ev.At, Pid: pidThreads, Tid: int64(ev.Node)})
		if err != nil {
			return err
		}
	}

	// Track naming metadata.
	meta := func(pid int, name string) error {
		return enc.emit(traceEvent{Name: "process_name", Ph: "M", Pid: pid, Args: map[string]any{"name": name}})
	}
	if err := meta(pidRouters, "noc routers"); err != nil {
		return err
	}
	if err := meta(pidThreads, "threads (lock path)"); err != nil {
		return err
	}
	if err := meta(pidLocks, "locks"); err != nil {
		return err
	}
	if err := meta(pidRegions, "threads (regions)"); err != nil {
		return err
	}
	for _, r := range sortedKeys(seenRouter) {
		err := enc.emit(traceEvent{Name: "thread_name", Ph: "M", Pid: pidRouters, Tid: int64(r),
			Args: map[string]any{"name": fmt.Sprintf("router %d", r)}})
		if err != nil {
			return err
		}
	}

	if _, err := fmt.Fprint(bw, "\n],\n\"reproEvents\":[\n"); err != nil {
		return err
	}
	for i := range evs {
		ev := &evs[i]
		sep := ",\n"
		if i == len(evs)-1 {
			sep = "\n"
		}
		_, err := fmt.Fprintf(bw, "[%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d]%s",
			ev.At, ev.Kind, ev.Node, ev.Pkt, ev.Pkt2, ev.V1, ev.V2, ev.V3, ev.A, ev.B, ev.C, sep)
		if err != nil {
			return err
		}
	}
	if _, err := fmt.Fprint(bw, "]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// WriteTraceFile writes the recorder's retained events to a new file at
// path with WriteTrace.
func WriteTraceFile(path string, r *Recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteTrace(f, r.Events(), r.Dropped()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// sortedKeys returns m's keys in ascending order, so output built from a
// map is byte-reproducible.
func sortedKeys[V any](m map[int32]V) []int32 {
	keys := make([]int32, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// eventEncoder streams traceEvents with separating commas.
type eventEncoder struct {
	bw    *bufio.Writer
	wrote bool
}

func (e *eventEncoder) emit(ev traceEvent) error {
	if e.wrote {
		if _, err := e.bw.WriteString(",\n"); err != nil {
			return err
		}
	}
	e.wrote = true
	b, err := json.Marshal(ev)
	if err != nil {
		return err
	}
	_, err = e.bw.Write(b)
	return err
}

// ReadTrace parses a file written by WriteTrace back into the raw event
// stream (from the embedded "reproEvents" key) and the dropped-event count.
func ReadTrace(r io.Reader) ([]Event, uint64, error) {
	var doc struct {
		ReproDropped uint64          `json:"reproDropped"`
		ReproEvents  [][]uint64      `json:"reproEvents"`
		TraceEvents  json.RawMessage `json:"traceEvents"` // skipped
	}
	dec := json.NewDecoder(r)
	if err := dec.Decode(&doc); err != nil {
		return nil, 0, fmt.Errorf("obs: parsing trace: %w", err)
	}
	evs := make([]Event, 0, len(doc.ReproEvents))
	for i, row := range doc.ReproEvents {
		if len(row) != 11 {
			return nil, 0, fmt.Errorf("obs: trace event %d has %d fields, want 11", i, len(row))
		}
		evs = append(evs, Event{
			At: row[0], Kind: Kind(row[1]), Node: int32(row[2]),
			Pkt: row[3], Pkt2: row[4], V1: row[5], V2: row[6], V3: row[7],
			A: uint8(row[8]), B: uint8(row[9]), C: uint8(row[10]),
		})
	}
	return evs, doc.ReproDropped, nil
}
