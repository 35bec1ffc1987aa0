package main

import (
	"sort"

	"dmexplore/internal/core"
)

// workload is one benchmark scenario. A run generates traces traces from
// --seed; one repetition runs walks sweeps or searches on each trace,
// with the same sample and search seeds in every repetition.
type workload struct {
	name  string
	trace string // generator name in internal/workload
	kind  string // sweep | hillclimb | evolve | islands
	space func() *core.Space

	incremental bool
	surrogate   bool

	// size is the sample size (sweep), the simulation budget (searches)
	// or the per-island budget (islands).
	size       int
	population int
	// traces is how many traces a run generates from --seed; walks is
	// how many sweeps or searches a repetition runs on each (seeds
	// searchSeed, searchSeed+1, ...), each in a fresh session. Island
	// jobs run once per trace.
	traces, walks int

	// tailPct is the percentile eval_tail_ms reports: the highest one
	// with at least ten evaluations beyond it at the run's usual
	// evaluation count (BENCHMARK_NOTES.md records it per workload).
	tailPct float64

	// hvBox is the fixed accesses x footprint reference box front_hv is
	// normalized to: {accesses lo, accesses hi, footprint lo, footprint hi}.
	hvBox [4]float64
}

// objectives are the two minimized objectives of every workload: the
// paper's accesses x footprint trade-off.
var objectives = []string{"accesses", "footprint"}

var workloads = map[string]*workload{
	"sweep-easyport": {
		name: "sweep-easyport", trace: "easyport", kind: "sweep", space: core.FullEasyportSpace,
		size: 150, traces: 12, walks: 1, tailPct: 99,
		hvBox: [4]float64{1.0e6, 2.5e6, 2.5e5, 6.0e5},
	},
	"hillclimb-vtc": {
		name: "hillclimb-vtc", trace: "vtc", kind: "hillclimb", space: core.VTCSpace,
		incremental: true, size: 128, traces: 6, walks: 2, tailPct: 95,
		hvBox: [4]float64{8.5e5, 2.5e6, 3.5e4, 1.5e5},
	},
	"evolve-easyport-surrogate": {
		name: "evolve-easyport-surrogate", trace: "easyport", kind: "evolve", space: core.FullEasyportSpace,
		incremental: true, surrogate: true, size: 256, population: 32, traces: 7, walks: 1, tailPct: 95,
		hvBox: [4]float64{1.0e6, 2.5e6, 2.5e5, 6.0e5},
	},
	"islands-easyport": {
		name: "islands-easyport", trace: "easyport", kind: "islands", space: core.EasyportSpace,
		size: 96, population: 16, traces: 6, tailPct: 95,
		hvBox: [4]float64{4.5e4, 1.5e5, 2.0e5, 1.3e6},
	},
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
