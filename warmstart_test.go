package repro

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/experiments"
	"repro/internal/metrics"
)

// TestWarmGridMatchesCold is the warm-start fork's end-to-end guarantee:
// a sweep grid run with prefix forking (one shared pre-first-lock prefix
// per protocol-independent configuration) produces results byte-identical
// to the same grid run cold, with every cell simulated from cycle zero.
// The grid deliberately contains duplicate cells (the baseline rows of a
// priority-level sweep, which don't read the level) to exercise
// deduplication.
func TestWarmGridMatchesCold(t *testing.T) {
	p := detProfile()
	var cells []experiments.Cell
	for _, lv := range []int{4, 8, 16} {
		// Baseline half: levels unused, so all three cells are identical.
		cells = append(cells, experiments.Cell{Profile: p, Threads: 16, Seed: 7})
		for _, proto := range []string{"", "mcs", "cna"} {
			cells = append(cells, experiments.Cell{
				Profile: p, Threads: 16, OCOR: true, Levels: lv, Seed: 7, Protocol: proto,
			})
		}
	}

	cold, coldStats, err := experiments.RunGrid(cells, experiments.GridOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	warm, warmStats, err := experiments.RunGrid(cells, experiments.GridOptions{Warm: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if coldStats.Unique != warmStats.Unique {
		t.Fatalf("unique counts differ: cold %d, warm %d", coldStats.Unique, warmStats.Unique)
	}
	// 3 identical baseline cells dedupe to 1; the 9 OCOR cells are distinct.
	if want := 10; warmStats.Unique != want {
		t.Fatalf("unique cells = %d, want %d", warmStats.Unique, want)
	}
	if warmStats.Forked != warmStats.Unique || warmStats.PrefixCycles == 0 {
		t.Fatalf("warm grid did not fork every unique cell: %+v", warmStats)
	}
	// One prefix per (OCOR) half: baseline and OCOR cells differ only there.
	if want := 2; warmStats.PrefixesBuilt != want {
		t.Fatalf("built %d prefixes, want %d: %+v", warmStats.PrefixesBuilt, want, warmStats)
	}
	for i := range cells {
		cj, _ := json.Marshal(cold[i])
		wj, _ := json.Marshal(warm[i])
		if !bytes.Equal(cj, wj) {
			t.Fatalf("cell %d (%+v): warm-started result diverged:\ncold: %s\nwarm: %s", i, cells[i], cj, wj)
		}
	}
}

// TestWarmGridEmitOrder asserts the streaming emitter delivers every cell
// exactly once, in cell order, and that duplicate cells receive their
// representative's result.
func TestWarmGridEmitOrder(t *testing.T) {
	p := detProfile()
	cells := []experiments.Cell{
		{Profile: p, Threads: 16, Seed: 7},
		{Profile: p, Threads: 16, OCOR: true, Levels: 8, Seed: 7},
		{Profile: p, Threads: 16, Seed: 7}, // duplicate of cell 0
		{Profile: p, Threads: 16, OCOR: true, Levels: 4, Seed: 7},
	}
	var order []int
	var emitted []metrics.Results
	res, _, err := experiments.RunGrid(cells, experiments.GridOptions{Warm: true, Jobs: 4},
		func(i int, r metrics.Results) { order = append(order, i); emitted = append(emitted, r) })
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != len(cells) {
		t.Fatalf("emitted %d cells, want %d", len(order), len(cells))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("emit order %v, want sequential", order)
		}
	}
	for i := range cells {
		ej, _ := json.Marshal(emitted[i])
		rj, _ := json.Marshal(res[i])
		if !bytes.Equal(ej, rj) {
			t.Fatalf("cell %d: emitted result differs from returned result", i)
		}
	}
	c0, _ := json.Marshal(res[0])
	c2, _ := json.Marshal(res[2])
	if !bytes.Equal(c0, c2) {
		t.Fatal("duplicate cells returned different results")
	}
}

// TestStalePrefixFileRunsCold plants a prefix file of the previous
// checkpoint format version where DirPrefixCache looks for a cell's
// prefix: the load misses, and the warm runner gives the cold results.
func TestStalePrefixFileRunsCold(t *testing.T) {
	c := experiments.Cell{Profile: detProfile(), Threads: 16, OCOR: true, Seed: 7}
	cache := DirPrefixCache(t.TempDir())
	cache.Store(c.PrefixKey(), &checkpoint.Snapshot{Version: checkpoint.Version - 1, Data: []byte{1}}, 100)
	if _, _, ok := cache.Load(c.PrefixKey()); ok {
		t.Fatal("a prefix file of the previous format version loaded")
	}
	warm, err := CellRunner(CellRunnerOptions{Warm: true, Cache: cache})(c)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := New(Config{Benchmark: c.Profile, Threads: c.Threads, OCOR: c.OCOR, Seed: c.Seed})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if warm != cold {
		t.Fatalf("warm run after a stale prefix file:\n%+v\ncold:\n%+v", warm, cold)
	}
}
