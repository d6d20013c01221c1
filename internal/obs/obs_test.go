package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/core"
)

func TestRecorderRingWrap(t *testing.T) {
	r := NewRecorder(4)
	if len(r.buf) != 4 {
		t.Fatalf("capacity 4 should stay 4, got %d", len(r.buf))
	}
	for i := uint64(0); i < 10; i++ {
		r.Emit(Event{At: i, Kind: KindHop})
	}
	if got := r.Len(); got != 4 {
		t.Fatalf("Len = %d, want 4", got)
	}
	if got := r.Dropped(); got != 6 {
		t.Fatalf("Dropped = %d, want 6", got)
	}
	evs := r.Events()
	for i, ev := range evs {
		if want := uint64(6 + i); ev.At != want {
			t.Fatalf("event %d At = %d, want %d (oldest-first after wrap)", i, ev.At, want)
		}
	}
	// Stats saw every emission, including the evicted ones.
	if got := r.Stats.PerHop.Count(); got != 10 {
		t.Fatalf("PerHop count = %d, want 10", got)
	}
}

func TestRecorderCapacityRounding(t *testing.T) {
	if n := len(NewRecorder(5).buf); n != 8 {
		t.Fatalf("capacity 5 -> %d, want 8", n)
	}
	if n := len(NewRecorder(0).buf); n != DefaultCapacity {
		t.Fatalf("capacity 0 -> %d, want DefaultCapacity", n)
	}
}

func TestRecorderKindMask(t *testing.T) {
	r := NewRecorder(8)
	if r.Enabled(KindEngineStep) {
		t.Fatal("KindEngineStep should start disabled")
	}
	r.EngineStep(1)
	if r.Len() != 0 {
		t.Fatal("disabled kind must not be recorded")
	}
	r.EnableKind(KindEngineStep, true)
	r.EngineStep(2)
	if r.Len() != 1 {
		t.Fatal("enabled kind must be recorded")
	}
	r.EnableKind(KindHop, false)
	r.Hop(3, 0, 1, 1, 0, 0, 0)
	if r.Len() != 1 || r.Stats.PerHop.Count() != 0 {
		t.Fatal("disabling a kind must suppress both the ring and the stats")
	}
}

func TestDecisiveRule(t *testing.T) {
	lockReq := core.Priority{Check: true, Class: 2, Prog: 100}
	cases := []struct {
		name      string
		win, lose core.Priority
		want      Rule
	}{
		{"check bit separates", lockReq, core.Priority{Class: 2, Prog: 100}, RuleLockFirst},
		{"slower progress wins", core.Priority{Check: true, Class: 2, Prog: 50}, lockReq, RuleSlowProgress},
		{"wakeup demoted", core.Priority{Check: true, Class: 2, Prog: 100}, core.Priority{Check: true, Class: core.WakeupClass, Prog: 100}, RuleWakeupLast},
		{"least RTR", core.Priority{Check: true, Class: 3, Prog: 100}, core.Priority{Check: true, Class: 1, Prog: 100}, RuleLeastRTR},
		{"identical ties", lockReq, lockReq, RuleTie},
	}
	for _, tc := range cases {
		if got := DecisiveRule(tc.win, tc.lose); got != tc.want {
			t.Errorf("%s: DecisiveRule = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestPriorityRoundTrip(t *testing.T) {
	for _, p := range []core.Priority{
		{},
		{Check: true, Class: 7, Prog: 65535},
		{Class: core.WakeupClass, Prog: 42},
	} {
		if got := DecodePriority(EncodePriority(p)); got != p {
			t.Errorf("round trip %+v -> %+v", p, got)
		}
	}
}

func TestLogHist(t *testing.T) {
	var h LogHist
	if h.Quantile(0.5) != 0 || h.Mean() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
	for _, v := range []uint64{0, 1, 2, 3, 100, 1000} {
		h.Observe(v)
	}
	if h.Count() != 6 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Max() != 1000 {
		t.Fatalf("max = %d", h.Max())
	}
	if got, want := h.Mean(), float64(1106)/6; got != want {
		t.Fatalf("mean = %v, want %v", got, want)
	}
	// p50 upper bound: the 3rd sample (value 2) lands in bucket [2,4).
	if got := h.Quantile(0.5); got != 4 {
		t.Fatalf("p50 bound = %d, want 4", got)
	}
	if got := h.Quantile(1.0); got < 1000 {
		t.Fatalf("p100 bound = %d, want >= 1000", got)
	}
	// A sample beyond the last boundary still lands in a bucket.
	h.Observe(1 << 40)
	if h.Count() != 7 {
		t.Fatal("huge sample dropped")
	}
}

// TestLogHistQuantileBounds pins the quantile convention: the upper bound
// of the power-of-two bucket the quantile falls in, and the observed max
// in the unbounded last bucket. metrics.Results.BTP95/COHP95 and with them
// the pinned seed signatures depend on these values.
func TestLogHistQuantileBounds(t *testing.T) {
	for _, tc := range []struct {
		samples []uint64
		q       float64
		want    uint64
	}{
		{nil, 0.5, 0},
		{[]uint64{0}, 0.5, 1},
		{[]uint64{1}, 0.5, 2},
		{[]uint64{3}, 0.5, 4},
		{[]uint64{4}, 0.5, 8},
		{[]uint64{1000}, 0.95, 1024},
		{[]uint64{1023}, 0.95, 1024},
		{[]uint64{1024}, 0.95, 2048},
		{[]uint64{1, 2, 3, 100, 1000}, 0, 2},
		{[]uint64{1, 2, 3, 100, 1000}, 0.5, 4},
		{[]uint64{1, 2, 3, 100, 1000}, 0.95, 1024},
		{[]uint64{1, 2, 3, 100, 1000}, 1, 1024},
		{[]uint64{1<<30 - 1}, 0.5, 1 << 30},
		{[]uint64{1 << 40}, 0.5, 1 << 40}, // overflow bucket [2^30,inf): the max
	} {
		var h LogHist
		for _, v := range tc.samples {
			h.Observe(v)
		}
		if got := h.Quantile(tc.q); got != tc.want {
			t.Errorf("%v: Quantile(%v) = %d, want %d", tc.samples, tc.q, got, tc.want)
		}
	}
}

func TestStatsObserve(t *testing.T) {
	r := NewRecorder(64)
	prio := core.Priority{Check: true, Class: 2, Prog: 1}
	r.PktInjected(10, 7, 0, 5, 1, 0, 3, prio)
	r.Hop(20, 1, 7, 4, 0, 2, 0)
	r.Hop(25, 2, 7, 3, 0, 2, 0)
	r.PktEjected(30, 7, 5, 2, 12, 20, 1)
	r.Acquired(40, 3, 0, 100, 60, true, 2, 0, 9, 7)
	r.SAWin(20, 1, 7, 2, RuleLockFirst, 2)
	r.SALoss(20, 1, 8, 7, 2, RuleLockFirst)
	s := &r.Stats
	if s.Injected != 1 || s.Ejected != 1 || s.Acquires != 1 {
		t.Fatalf("counters: %+v", s)
	}
	if s.PerHop.Count() != 2 || s.PerHop.Max() != 4 {
		t.Fatalf("per-hop: %+v", s.PerHop)
	}
	if s.ByClass[1].Count() != 1 || s.ByHops[2].Count() != 1 {
		t.Fatal("class/hops histograms not updated")
	}
	if s.BT.Max() != 100 || s.COH.Max() != 60 {
		t.Fatal("BT/COH histograms not updated")
	}
	if s.ArbWins[RuleLockFirst] != 1 || s.ArbLosses[RuleLockFirst] != 1 {
		t.Fatal("arbitration counters not updated")
	}
	var buf bytes.Buffer
	s.Summary(&buf, nil)
	for _, want := range []string{"injected 1", "lock-first", "blocking time"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("summary missing %q:\n%s", want, buf.String())
		}
	}
}

// sampleEvents builds a stream with one full acquisition: request pkt 1
// hops through routers 0,1; grant pkt 2 hops back through 1,0.
func sampleEvents() []Event {
	r := NewRecorder(256)
	r.SpinStart(5, 3, 0, 8)
	r.Hop(10, 0, 1, 2, 4, 1, 0)
	r.Hop(14, 1, 1, 1, 3, 4, 0)
	r.LockDecision(16, 1, 0, 3, 1, true)
	r.Hop(20, 1, 2, 2, 4, 3, 0)
	r.Hop(24, 0, 2, 1, 1, 4, 0)
	r.Acquired(26, 3, 0, 21, 10, true, 1, 0, 2, 1)
	r.ThreadState(5, 3, 1)
	r.ThreadState(26, 3, 5)
	r.Released(36, 3, 0, 10)
	r.ThreadState(36, 3, 0)
	r.Region(0, 3, 0)
	r.Region(5, 3, 1)
	return r.Events()
}

func TestAcquisitionsAndTopSlowest(t *testing.T) {
	acqs := Acquisitions(sampleEvents())
	if len(acqs) != 1 {
		t.Fatalf("got %d acquisitions, want 1", len(acqs))
	}
	a := acqs[0]
	if a.Thread != 3 || a.Lock != 0 || a.BT != 21 || a.COH != 10 || !a.SpinPhase {
		t.Fatalf("acquisition fields: %+v", a)
	}
	if len(a.ReqPath) != 2 || len(a.GrantPath) != 2 {
		t.Fatalf("paths: req %d hops, grant %d hops", len(a.ReqPath), len(a.GrantPath))
	}
	if a.NetLatency() != 2+1+2+1 {
		t.Fatalf("net latency = %d", a.NetLatency())
	}

	more := append(acqs, Acquisition{Thread: 1, BT: 99, Granted: 50}, Acquisition{Thread: 2, BT: 21, Granted: 12})
	top := TopSlowest(more, 2)
	if len(top) != 2 || top[0].BT != 99 {
		t.Fatalf("top: %+v", top)
	}
	// BT tie (21 vs 21) breaks by earlier grant cycle.
	if top[1].Thread != 2 {
		t.Fatalf("tie break: got thread %d, want 2", top[1].Thread)
	}
	var buf bytes.Buffer
	a.WriteBreakdown(&buf)
	out := buf.String()
	for _, want := range []string{"thread 3", "BT=21", "request pkt#1", "r0+2", "grant"} {
		if !strings.Contains(out, want) {
			t.Errorf("breakdown missing %q:\n%s", want, out)
		}
	}
}

func TestWriteTraceRoundTripAndFlows(t *testing.T) {
	evs := sampleEvents()
	var buf bytes.Buffer
	if err := WriteTrace(&buf, evs, 3); err != nil {
		t.Fatal(err)
	}
	// The file must be one valid JSON object with a traceEvents array.
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	var tes []map[string]any
	if err := json.Unmarshal(doc["traceEvents"], &tes); err != nil {
		t.Fatalf("traceEvents: %v", err)
	}
	phases := map[string]int{}
	for _, te := range tes {
		phases[te["ph"].(string)]++
	}
	if phases["X"] == 0 || phases["M"] == 0 {
		t.Fatalf("missing slices or metadata: %v", phases)
	}
	// The acquisition flow: a start, steps through the remaining hops, and
	// a binding finish on the thread track.
	if phases["s"] != 1 || phases["t"] != 3 || phases["f"] != 1 {
		t.Fatalf("flow events: %v (want s=1 t=3 f=1)", phases)
	}

	back, dropped, err := ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 3 {
		t.Fatalf("dropped = %d, want 3", dropped)
	}
	if len(back) != len(evs) {
		t.Fatalf("round trip %d events, want %d", len(back), len(evs))
	}
	for i := range back {
		if back[i] != evs[i] {
			t.Fatalf("event %d: %+v != %+v", i, back[i], evs[i])
		}
	}
}

// TestWriteTraceReproducible checks that trace files are byte-identical
// across exports of the same events: metadata and end-of-trace slices come
// out in ascending id order, not map order.
func TestWriteTraceReproducible(t *testing.T) {
	r := NewRecorder(1024)
	const routers = 100
	for i := 0; i < routers; i++ {
		r.Hop(uint64(10+i), (i*37)%routers, uint64(i), 1, 0, 1, 0)
	}
	for th := 20; th > 0; th-- {
		r.ThreadState(uint64(th), th, 1) // still spinning at the end
		r.Region(uint64(th), th, regionBlocked)
	}
	evs := r.Events()
	var first bytes.Buffer
	if err := WriteTrace(&first, evs, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		var again bytes.Buffer
		if err := WriteTrace(&again, evs, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), again.Bytes()) {
			t.Fatal("two exports of the same events differ")
		}
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Tid  int64  `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(first.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	var tids []int64
	for _, te := range doc.TraceEvents {
		if te.Ph == "M" && te.Name == "thread_name" {
			tids = append(tids, te.Tid)
		}
	}
	if len(tids) != routers {
		t.Fatalf("%d router names, want %d", len(tids), routers)
	}
	for i, tid := range tids {
		if tid != int64(i) {
			t.Fatalf("router names out of order: %v", tids)
		}
	}
}
