package main

import (
	"fmt"

	"repro"
	"repro/internal/experiments"
	"repro/internal/workload"
)

// Iteration scales of the three workloads: the roadmap's -quick -scale
// 0.25, so one pass of every workload fits several times into a run.
const (
	paperScale = 0.25
	sweepScale = 0.25
	giantScale = 0.25
)

// giantSeeds is how many seeds a giant-mesh pass runs: on the 64x64
// mesh the simulated cycles of one seed's program differ from the next
// seed's by up to a quarter while host time barely follows them, and a
// pass over several seeds evens that out for sim_cycles_per_s.
const giantSeeds = 8

// job is one workload instance, generated from a seed: either a list of
// direct platform runs or one sweep grid.
type job struct {
	runs  []repro.Config
	cells []experiments.Cell
}

// workloadDef names a workload and builds its inputs. scale multiplies
// the workload's own iteration scale (1 = the benchmark's size; tests
// pass a small factor). Why each workload exists is recorded in
// BENCHMARK.json and README.md.
type workloadDef struct {
	name  string
	build func(seed uint64, scale float64) (job, error)
}

var workloads = []workloadDef{
	{
		name: "paper-suite",
		build: func(seed uint64, scale float64) (job, error) {
			var j job
			for _, p := range quickSuite() {
				p = p.Scale(paperScale * scale)
				for _, ocor := range []bool{false, true} {
					j.runs = append(j.runs, repro.Config{
						Benchmark: p, Threads: 64, MeshWidth: 8, MeshHeight: 8, OCOR: ocor, Seed: seed,
					})
				}
			}
			return j, nil
		},
	},
	{
		name: "levels-sweep",
		build: func(seed uint64, scale float64) (job, error) {
			p, err := repro.Benchmark("body")
			if err != nil {
				return job{}, err
			}
			p = p.Scale(sweepScale * scale)
			var j job
			for _, threads := range []int{16, 64} {
				for _, levels := range []int{2, 4, 8, 16} {
					for s := seed; s < seed+2; s++ {
						base := experiments.Cell{Profile: p, Threads: threads, Seed: s}
						ocor := base
						ocor.OCOR, ocor.Levels = true, levels
						j.cells = append(j.cells, base, ocor)
					}
				}
			}
			return j, nil
		},
	},
	{
		name: "giant-mesh",
		build: func(seed uint64, scale float64) (job, error) {
			p, err := repro.Benchmark("imag")
			if err != nil {
				return job{}, err
			}
			p = p.Scale(giantScale * scale)
			var j job
			for s := seed; s < seed+giantSeeds; s++ {
				for _, ocor := range []bool{false, true} {
					j.runs = append(j.runs, repro.Config{
						Benchmark: p, Threads: 64, MeshWidth: 64, MeshHeight: 64, OCOR: ocor, Seed: s,
					})
				}
			}
			return j, nil
		},
	},
}

// quickSuite returns the paper's quick subset in catalog order, the same
// set and order as `cmd/experiments -quick`.
func quickSuite() []workload.Profile {
	quick := map[string]bool{"botss": true, "can": true, "body": true, "freq": true, "smith": true, "imag": true}
	var out []workload.Profile
	for _, p := range repro.Catalog() {
		if quick[p.Name] {
			out = append(out, p)
		}
	}
	return out
}

func lookupWorkload(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (known: %v)", name, names)
}
