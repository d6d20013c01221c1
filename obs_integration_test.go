package repro

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cpu"
	"repro/internal/kernel"
	"repro/internal/obs"
)

// TestExporterNamesMatchStringers pins the exporter's duplicated name
// and glyph tables (kept local to internal/obs to avoid an import cycle)
// against the authoritative Stringers and constants in kernel and cpu.
func TestExporterNamesMatchStringers(t *testing.T) {
	for s := kernel.StateIdle; s <= kernel.StateHolding; s++ {
		if got, want := obs.ThreadStateName(uint8(s)), s.String(); got != want {
			t.Errorf("ThreadStateName(%d) = %q, want %q", s, got, want)
		}
	}
	for r := cpu.RegionParallel; r <= cpu.RegionDone; r++ {
		if got, want := obs.RegionName(uint8(r)), r.String(); got != want {
			t.Errorf("RegionName(%d) = %q, want %q", r, got, want)
		}
	}
	// The execution-profile glyphs: the legend every Gantt header prints.
	glyphs := map[cpu.Region]byte{cpu.RegionParallel: '.', cpu.RegionBlocked: '#', cpu.RegionCS: 'C', cpu.RegionDone: ' '}
	for r, want := range glyphs {
		if got := obs.RegionGlyph(uint8(r)); got != want {
			t.Errorf("RegionGlyph(%s) = %q, want %q", r, got, want)
		}
	}
}

// TestPerfettoExportIntegration runs a real contended workload with the
// recorder attached and checks the exported trace end to end: it is valid
// JSON in Chrome trace-event shape, it contains at least one complete flow
// linking a locking packet's router hops to the acquisition it completed,
// it round-trips through ReadTrace, and the query layer reconstructs
// acquisitions with per-hop paths from it.
func TestPerfettoExportIntegration(t *testing.T) {
	rec := obs.NewRecorder(0)
	sys, err := New(Config{Benchmark: detProfile(), Threads: 16, OCOR: true, Seed: 7, Obs: rec})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if rec.Dropped() != 0 {
		t.Fatalf("ring evicted %d events on a small run; raise DefaultCapacity or shrink the workload", rec.Dropped())
	}

	var buf bytes.Buffer
	if err := obs.WriteTrace(&buf, rec.Events(), rec.Dropped()); err != nil {
		t.Fatal(err)
	}

	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Cat  string `json:"cat"`
			Ph   string `json:"ph"`
			Pid  int    `json:"pid"`
			ID   uint64 `json:"id"`
		} `json:"traceEvents"`
		ReproEvents  [][]uint64 `json:"reproEvents"`
		ReproDropped uint64     `json:"reproDropped"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("exported trace is not valid JSON: %v", err)
	}
	phases := map[string]int{}
	flowIDs := map[uint64]map[string]bool{}
	for _, e := range doc.TraceEvents {
		phases[e.Ph]++
		if e.Cat == "lock" && e.Name == "acquisition" {
			if flowIDs[e.ID] == nil {
				flowIDs[e.ID] = map[string]bool{}
			}
			flowIDs[e.ID][e.Ph] = true
		}
	}
	if phases["X"] == 0 || phases["M"] == 0 {
		t.Fatalf("missing slice or metadata events: %v", phases)
	}
	complete := 0
	for _, phs := range flowIDs {
		if phs["s"] && phs["f"] {
			complete++
		}
	}
	if complete == 0 {
		t.Fatalf("no complete acquisition flow (start+finish) in trace: phases %v, %d flow ids", phases, len(flowIDs))
	}
	if len(doc.ReproEvents) != rec.Len() {
		t.Fatalf("embedded %d raw events, recorder holds %d", len(doc.ReproEvents), rec.Len())
	}

	evs, dropped, err := obs.ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if dropped != rec.Dropped() {
		t.Fatalf("round-trip dropped = %d, want %d", dropped, rec.Dropped())
	}
	if !reflect.DeepEqual(evs, rec.Events()) {
		t.Fatal("events do not round-trip through WriteTrace/ReadTrace")
	}

	acqs := obs.Acquisitions(evs)
	if len(acqs) == 0 {
		t.Fatal("no acquisitions reconstructed from the trace")
	}
	withPath := 0
	for i := range acqs {
		if len(acqs[i].ReqPath) > 0 {
			withPath++
		}
	}
	if withPath == 0 {
		t.Fatal("no acquisition carries a request packet path")
	}
	top := obs.TopSlowest(acqs, 3)
	for i := 1; i < len(top); i++ {
		if top[i].BT > top[i-1].BT {
			t.Fatalf("TopSlowest not sorted: BT[%d]=%d > BT[%d]=%d", i, top[i].BT, i-1, top[i-1].BT)
		}
	}
	var sb strings.Builder
	top[0].WriteBreakdown(&sb)
	if !strings.Contains(sb.String(), "BT=") || !strings.Contains(sb.String(), "pkt#") {
		t.Fatalf("breakdown missing fields:\n%s", sb.String())
	}
}
