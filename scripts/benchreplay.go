//go:build ignore

// benchreplay runs the replay-engine benchmark suite and records the
// results in BENCH_replay.json at the repository root, next to the frozen
// pre-Replayer baseline numbers, so the perf trajectory of the compiled
// replay path is tracked in one place.
//
// Usage, from the repository root:
//
//	go run scripts/benchreplay.go
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// baseline is the pre-change replay path measured at the commit that
// introduced the compiled replay engine: BenchmarkRun (trace replayed
// through the old map-based profile.Run loop), easyport 3000 packets,
// MB/s where bytes = events, i.e. Mevents/sec. Frozen for comparison.
var baseline = map[string]float64{
	"easyport/kingsley": 6.58e6,
	"easyport/lea":      3.71e6,
	"easyport/firstfit": 4.37e6,
}

// benchResult is one parsed benchmark line.
type benchResult struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
	SpeedupX   float64            `json:"speedup_vs_baseline,omitempty"`
}

type output struct {
	GeneratedBy string             `json:"generated_by"`
	GoVersion   string             `json:"go_version"`
	Baseline    map[string]float64 `json:"baseline_pre_change_events_per_sec"`
	Results     []benchResult      `json:"results"`
	// TelemetryOverheadPct compares BenchmarkReplayTelemetry against
	// BenchmarkReplayEasyport per configuration: percent of events/sec
	// lost to the attached span ring. Budget: < 2%.
	TelemetryOverheadPct map[string]float64 `json:"telemetry_overhead_pct,omitempty"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchreplay:", err)
		os.Exit(1)
	}
}

func run() error {
	out := output{
		GeneratedBy: "go run scripts/benchreplay.go",
		GoVersion:   goVersion(),
		Baseline:    baseline,
	}
	suites := []struct {
		pkg   string
		bench string
		args  []string
	}{
		{"./internal/profile/", "BenchmarkReplay", []string{"-benchmem", "-benchtime", "2s"}},
		{"./internal/core/", "BenchmarkRunnerFanout", []string{"-benchtime", "2x"}},
	}
	for _, s := range suites {
		args := append([]string{"test", s.pkg, "-run", "^$", "-bench", s.bench}, s.args...)
		fmt.Fprintf(os.Stderr, "running go %s\n", strings.Join(args, " "))
		cmd := exec.Command("go", args...)
		cmd.Stderr = os.Stderr
		text, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("go %s: %w", strings.Join(args, " "), err)
		}
		results, err := parseBench(string(text))
		if err != nil {
			return err
		}
		out.Results = append(out.Results, results...)
	}
	for i := range out.Results {
		r := &out.Results[i]
		key := baselineKey(r.Name)
		if base, ok := baseline[key]; ok {
			if eps, ok := r.Metrics["events/sec"]; ok && base > 0 {
				r.SpeedupX = eps / base
			}
		}
	}
	out.TelemetryOverheadPct = telemetryOverhead(out.Results)
	for cfg, pct := range out.TelemetryOverheadPct {
		status := "ok"
		if pct >= 2 {
			status = "OVER BUDGET (2%)"
		}
		fmt.Fprintf(os.Stderr, "telemetry overhead %-10s %+.2f%% %s\n", cfg, pct, status)
	}
	f, err := os.Create("BENCH_replay.json")
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "wrote BENCH_replay.json")
	return nil
}

// parseBench extracts benchmark lines from `go test -bench` output. Each
// line is "BenchmarkName-P  iterations  (value unit)...".
func parseBench(text string) ([]benchResult, error) {
	var results []benchResult
	for _, line := range strings.Split(text, "\n") {
		fields := strings.Fields(line)
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			name = name[:i] // strip the -GOMAXPROCS suffix
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad iteration count in %q: %v", line, err)
		}
		r := benchResult{Name: name, Iterations: iters, Metrics: map[string]float64{}}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("bad metric value in %q: %v", line, err)
			}
			r.Metrics[fields[i+1]] = v
		}
		results = append(results, r)
	}
	if len(results) == 0 {
		return nil, fmt.Errorf("no benchmark lines in output:\n%s", text)
	}
	return results, nil
}

// telemetryOverhead pairs each BenchmarkReplayTelemetry/<cfg> result
// with its plain BenchmarkReplayEasyport/<cfg> twin (same workload,
// same steady-state loop, only the shard differs) and returns the
// percentage of throughput lost to observation. Negative values mean
// the instrumented run measured faster — i.e. overhead below noise.
func telemetryOverhead(results []benchResult) map[string]float64 {
	eps := func(name string) float64 {
		for _, r := range results {
			if r.Name == name {
				return r.Metrics["events/sec"]
			}
		}
		return 0
	}
	overhead := map[string]float64{}
	for _, cfg := range []string{"kingsley", "lea", "firstfit"} {
		plain := eps("BenchmarkReplayEasyport/" + cfg)
		instr := eps("BenchmarkReplayTelemetry/" + cfg)
		if plain > 0 && instr > 0 {
			overhead[cfg] = (plain - instr) / plain * 100
		}
	}
	return overhead
}

// baselineKey maps "BenchmarkReplayEasyport/kingsley" to the baseline
// table's "easyport/kingsley".
func baselineKey(name string) string {
	name = strings.TrimPrefix(name, "BenchmarkReplay")
	return strings.ToLower(name)
}

func goVersion() string {
	out, err := exec.Command("go", "version").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
