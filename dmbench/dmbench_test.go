package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// tinyScale shrinks every workload's trace so the whole matrix runs in
// seconds.
const tinyScale = "2"

// benchmarkSpec is the part of BENCHMARK.json the self-test checks.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func runTiny(t *testing.T, workload, trace string) (*result, error) {
	t.Helper()
	var out bytes.Buffer
	err := run([]string{"--workload", workload, "--seed", "3", "--seconds", "0.1",
		"--trace", trace, "--scale", tinyScale, "--out", t.TempDir()}, &out)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); jerr != nil {
		if err == nil {
			t.Fatalf("%s: last line is not the result object: %v\n%s", workload, jerr, out.String())
		}
		return nil, err
	}
	return &res, err
}

// TestEveryMetricPrinted runs every workload at tiny scale, untraced and
// traced, and checks that each metric BENCHMARK.json names is printed
// with its unit.
func TestEveryMetricPrinted(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, dmbench has %d", len(spec.Workloads), len(workloads))
	}
	for _, wl := range spec.Workloads {
		for _, mode := range []struct {
			trace string
			want  []struct {
				Name string `json:"name"`
				Unit string `json:"unit"`
			}
		}{{"0", spec.EndToEnd}, {"1", spec.PerLayer}} {
			res, err := runTiny(t, wl.Name, mode.trace)
			if err != nil {
				t.Fatalf("%s --trace %s: %v", wl.Name, mode.trace, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s --trace %s: correct=%v attempted=%d failed=%d", wl.Name, mode.trace, res.Correct, res.Attempted, res.Failed)
			}
			for _, m := range mode.want {
				got, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s --trace %s: metric %s not printed", wl.Name, mode.trace, m.Name)
				} else if got.Unit != m.Unit {
					t.Errorf("%s --trace %s: metric %s has unit %q, BENCHMARK.json says %q", wl.Name, mode.trace, m.Name, got.Unit, m.Unit)
				}
			}
			if len(res.Metrics) != len(mode.want) {
				t.Errorf("%s --trace %s: printed %d metrics, BENCHMARK.json names %d", wl.Name, mode.trace, len(res.Metrics), len(mode.want))
			}
		}
	}
}

// TestCorruptFingerprintFails records a wrong fingerprint for a run and
// checks that the run reports itself incorrect and fails.
func TestCorruptFingerprintFails(t *testing.T) {
	for _, wl := range []string{"sweep-easyport", "islands-easyport"} {
		key := fingerprintKey(wl, 3, 2, workloads[wl].traces)
		fingerprints[key] = "0123456789abcdef"
		res, err := runTiny(t, wl, "0")
		delete(fingerprints, key)
		if err == nil {
			t.Fatalf("%s: run with a corrupted fingerprint succeeded", wl)
		}
		if res == nil || res.Correct {
			t.Fatalf("%s: corrupted fingerprint not reported as incorrect (err %v)", wl, err)
		}
	}
}

// TestRecordedFingerprintMatches records the fingerprint a tiny run
// prints and checks that a second run reproduces it.
func TestRecordedFingerprintMatches(t *testing.T) {
	const wl = "hillclimb-vtc"
	key := fingerprintKey(wl, 3, 2, workloads[wl].traces)
	var out bytes.Buffer
	if err := run([]string{"--workload", wl, "--seed", "3", "--seconds", "0.1", "--scale", tinyScale, "--out", t.TempDir()}, &out); err != nil {
		t.Fatal(err)
	}
	var fp string
	for _, line := range strings.Split(out.String(), "\n") {
		if f := strings.Fields(line); len(f) >= 4 && f[1] == "fingerprint" && f[2] == key {
			fp = f[3]
		}
	}
	if fp == "" {
		t.Fatalf("no fingerprint note for %s in:\n%s", key, out.String())
	}
	fingerprints[key] = fp
	defer delete(fingerprints, key)
	res, err := runTiny(t, wl, "0")
	if err != nil || !res.Correct {
		t.Fatalf("rerun with the recorded fingerprint failed: %v", err)
	}
}

// TestRecordedFingerprintsParse guards the embedded table's format.
func TestRecordedFingerprintsParse(t *testing.T) {
	for key, fp := range fingerprints {
		if len(fp) != 16 || strings.Count(key, "/") != 3 {
			t.Errorf("malformed fingerprint entry %q: %q", key, fp)
		}
	}
}
