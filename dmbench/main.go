// Command dmbench is dmexplore's benchmark: one process runs one seeded
// workload closed-loop with two in-process evaluation workers
// (GOMAXPROCS=2), checks that the outputs are correct and prints every
// metric by name with its unit. The last stdout line is one JSON object
// with the keys correct, attempted, failed and metrics.
//
// Usage, from the repository root (dmbench/run.sh builds and runs it):
//
//	bash dmbench/run.sh --workload sweep-easyport --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the run reports the end-to-end metrics, measured with
// no instrumentation attached. With --trace 1 it attaches the span
// recorder, times calls into each layer's public functions, checks every
// fast-path result against a fresh full replay, and reports the
// per-layer metrics plus the tracing overhead. BENCHMARK_NOTES.md maps
// each layer metric to the end-to-end metric and workload it should
// move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// benchWorkers is the evaluation worker count every workload runs with.
const benchWorkers = 2

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dmbench:", err)
		os.Exit(1)
	}
}

// options are the parsed command-line arguments.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	scale    int    // percent of each workload's default trace length
	out      string // scratch directory for trace files, journals, spans
}

func parseArgs(args []string) (options, error) {
	fs := flag.NewFlagSet("dmbench", flag.ContinueOnError)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames(), "|"))
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed: trace generation and search seeds derive from it")
	fs.Float64Var(&o.seconds, "seconds", 20, "measurement time in seconds")
	trace := fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	fs.IntVar(&o.scale, "scale", 100, "trace length in percent of each workload's default (tests use a tiny scale)")
	fs.StringVar(&o.out, "out", filepath.Join(".bench_build", "dmbench-out"), "directory for generated traces, journals and the span file")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	if *trace != 0 && *trace != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	o.traced = *trace == 1
	if o.seconds <= 0 || o.scale <= 0 {
		return o, fmt.Errorf("--seconds and --scale must be positive")
	}
	if _, ok := workloads[o.workload]; !ok {
		return o, fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	return o, nil
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of stdout.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout io.Writer) error {
	o, err := parseArgs(args)
	if err != nil {
		return err
	}
	runtime.GOMAXPROCS(benchWorkers)
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	b := newBench(o, workloads[o.workload])
	res, err := b.run()
	if err != nil {
		return err
	}
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(stdout, "workload %s  seed %d  seconds %g  traced %v  gomaxprocs %d  workers %d\n",
		o.workload, o.seed, o.seconds, o.traced, runtime.GOMAXPROCS(0), benchWorkers)
	for _, line := range b.notes {
		fmt.Fprintln(stdout, "note:", line)
	}
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(stdout, "%-44s %16.6g %s\n", name, m.Value, m.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return fmt.Errorf("%s: correctness check failed: %s", o.workload, strings.Join(b.mismatches, "; "))
	}
	return nil
}
