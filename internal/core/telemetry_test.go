package core

import (
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"dmexplore/internal/alloc"
	"dmexplore/internal/memhier"
	"dmexplore/internal/stats"
	"dmexplore/internal/telemetry"
	"dmexplore/internal/telemetry/span"
	"dmexplore/internal/trace"
)

// TestRunnerTelemetryAccounting runs a cold sweep, then a fully cached
// one, and requires the merged snapshot to account for every
// configuration exactly: sims + cache hits + memo hits == sweep size,
// per phase.
func TestRunnerTelemetryAccounting(t *testing.T) {
	tr := tinyTrace(t)
	space := tinySpace()
	size := space.Size()
	cache, err := OpenResultsCache(filepath.Join(t.TempDir(), "cache.jsonl"))
	if err != nil {
		t.Fatal(err)
	}

	col := telemetry.NewCollector(4)
	r := &Runner{
		Hierarchy: memhier.EmbeddedSoC(), Trace: tr,
		Cache: cache, Telemetry: col, Workers: 4,
	}
	cold, err := r.Explore(space)
	if err != nil {
		t.Fatal(err)
	}
	s := col.Snapshot()
	if int(s.Sims+s.CacheHits+s.MemoHits) != size {
		t.Fatalf("cold sweep unaccounted: %+v", s)
	}
	if s.CacheHits != 0 || int(s.CacheMisses) != int(s.Sims) {
		t.Fatalf("cold sweep cache counts: %+v", s)
	}
	if s.Events == 0 || s.SimSecTotal <= 0 {
		t.Fatalf("no replay telemetry: %+v", s)
	}
	for _, res := range cold {
		if res.Duration <= 0 {
			t.Fatalf("config %d: no duration", res.Index)
		}
		if res.CacheHit {
			t.Fatalf("config %d: phantom cache hit", res.Index)
		}
	}

	// Warm phase into the same collector: every configuration must be a
	// cache or memo hit, zero new simulations.
	warm, err := r.Explore(space)
	if err != nil {
		t.Fatal(err)
	}
	s2 := col.Snapshot()
	if s2.Sims != s.Sims {
		t.Fatalf("warm sweep simulated: %+v", s2)
	}
	if int(s2.CacheHits+s2.MemoHits-s.MemoHits) != size {
		t.Fatalf("warm sweep not cache-served: %+v", s2)
	}
	hits := 0
	for _, res := range warm {
		if res.CacheHit {
			hits++
		}
	}
	if hits != int(s2.CacheHits) {
		t.Fatalf("result flags (%d) disagree with telemetry (%d)", hits, s2.CacheHits)
	}
	cs := cache.Stats()
	if cs.Hits != s2.CacheHits || cs.Misses != s2.CacheMisses {
		t.Fatalf("cache stats %+v disagree with telemetry %+v", cs, s2)
	}
}

// TestRunnerObserverJournals wires the Observer to a journal and checks
// one record per configuration with matching flags.
func TestRunnerObserverJournals(t *testing.T) {
	tr := tinyTrace(t)
	space := tinySpace()
	var (
		mu   sync.Mutex
		recs []telemetry.Record
	)
	r := &Runner{
		Hierarchy: memhier.EmbeddedSoC(), Trace: tr,
		Observer: func(res Result) {
			rec := res.JournalRecord()
			mu.Lock()
			recs = append(recs, rec)
			mu.Unlock()
		},
	}
	if _, err := r.Explore(space); err != nil {
		t.Fatal(err)
	}
	if len(recs) != space.Size() {
		t.Fatalf("journaled %d records for %d configurations", len(recs), space.Size())
	}
	seen := make(map[int]bool)
	for _, rec := range recs {
		if seen[rec.Index] {
			t.Fatalf("configuration %d journaled twice", rec.Index)
		}
		seen[rec.Index] = true
		if rec.Error != "" || rec.Accesses == 0 || rec.DurationMS <= 0 {
			t.Fatalf("bad record: %+v", rec)
		}
		if len(rec.Labels) != 2 {
			t.Fatalf("record labels: %+v", rec)
		}
	}
}

// TestRunnerErrorCarriesLabels pins the error-reporting fix: a failing
// configuration surfaces its index and axis labels in both the returned
// error and the journaled record.
func TestRunnerErrorCarriesLabels(t *testing.T) {
	tr := tinyTrace(t)
	space := tinySpace()
	// Sabotage the space: option "best" of axis "fit" now yields a
	// configuration that cannot build (unknown size-class spec).
	space.Axes[0].Options[1].Apply = func(c *alloc.Config) { c.General.Classes = "bogus" }

	col := telemetry.NewCollector(2)
	r := &Runner{Hierarchy: memhier.EmbeddedSoC(), Trace: tr, Telemetry: col, Workers: 2}
	var (
		mu   sync.Mutex
		recs []telemetry.Record
	)
	r.Observer = func(res Result) {
		mu.Lock()
		recs = append(recs, res.JournalRecord())
		mu.Unlock()
	}
	_, err := r.Explore(space)
	if err == nil {
		t.Fatal("sabotaged space explored cleanly")
	}
	msg := err.Error()
	if !strings.Contains(msg, "configuration") || !strings.Contains(msg, "best") {
		t.Fatalf("error lacks index/labels: %q", msg)
	}
	if s := col.Snapshot(); s.ErrorsSim == 0 {
		t.Fatalf("sim error not counted: %+v", s)
	}
	found := false
	for _, rec := range recs {
		if rec.Error != "" {
			found = true
			if !strings.Contains(rec.Error, "best") {
				t.Fatalf("journaled error lacks labels: %q", rec.Error)
			}
		}
	}
	if !found {
		t.Fatal("error never journaled")
	}
}

// TestUtilizationCountsStartedWorkers pins utilization to the pool a
// session actually starts: a 2-configuration run on a 4-shard collector
// starts two workers, and both are busy for the whole latency-modelled
// wave.
func TestUtilizationCountsStartedWorkers(t *testing.T) {
	ct, err := trace.Compile(tinyTrace(t))
	if err != nil {
		t.Fatal(err)
	}
	col := telemetry.NewCollector(4)
	r := &Runner{
		Hierarchy: memhier.EmbeddedSoC(), Compiled: ct, Workers: 4,
		Telemetry: col, EvalLatency: 50 * time.Millisecond,
	}
	if _, err := r.run(tinySpace(), []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	if u := col.Snapshot().Utilization; u <= 0.6 {
		t.Fatalf("utilization %.2f with both started workers busy, want > 0.6", u)
	}
}

// TestSnapshotDerivedFromStages pins the one-instrument contract: every
// simulation, cache and latency figure of the telemetry snapshot is a
// sum over the span recorder's stage rows. The run is an incremental
// hill-climb (full, partial and composed evaluations, partition builds)
// repeated over one results cache (misses, then hits) — untraced at one
// worker, traced at four.
func TestSnapshotDerivedFromStages(t *testing.T) {
	space := EasyportSpace()
	weights := []Weighted{{Objective: "accesses", Weight: 1}, {Objective: "footprint", Weight: 1}}
	for _, workers := range []int{1, 4} {
		col := telemetry.NewCollector(workers)
		if workers > 1 {
			col = telemetry.NewCollectorFor(span.NewRecorder(workers, span.DefaultRingCapacity))
		}
		cache, err := OpenResultsCache(filepath.Join(t.TempDir(), "cache.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		for pass := 0; pass < 2; pass++ {
			r := easyportRunner(t, true)
			r.Workers, r.Telemetry, r.Cache = workers, col, cache
			if _, err := r.HillClimb(space, weights, 48, 3); err != nil {
				t.Fatal(err)
			}
		}
		s := col.Snapshot()
		rows := col.Spans().Snapshot()
		full, partial := rows[span.StageFullSim], rows[span.StagePartialSim]
		build, probe := rows[span.StagePartitionBuild], rows[span.StageCacheProbe]
		var events uint64
		var seconds float64
		buckets := make([]uint64, stats.NumLog2Buckets)
		for _, row := range []span.StageSnapshot{full, partial, build} {
			events += uint64(row.Args)
			seconds += row.Seconds
			for b, n := range row.Buckets {
				buckets[b] += n
			}
		}
		for _, c := range []struct {
			name      string
			got, want uint64
		}{
			{"sims", s.Sims, full.Count + partial.Count},
			{"partial_sims", s.PartialSims, partial.Count},
			{"partition_builds", s.PartitionBuilds, build.Count},
			{"composed_evals", s.ComposedEvals, rows[span.StageCompose].Count},
			{"events_replayed", s.Events, events},
			{"cache_hits", s.CacheHits, uint64(probe.Args)},
			{"cache_misses", s.CacheMisses, probe.Count - uint64(probe.Args)},
			{"cache_hits vs cache stats", s.CacheHits, cache.Stats().Hits},
			{"cache_misses vs cache stats", s.CacheMisses, cache.Stats().Misses},
		} {
			if c.got != c.want {
				t.Errorf("workers=%d: %s = %d, stage rows give %d", workers, c.name, c.got, c.want)
			}
		}
		if math.Abs(s.SimSecTotal-seconds) > 1e-9 {
			t.Errorf("workers=%d: sim_sec_total %v, stage rows give %v", workers, s.SimSecTotal, seconds)
		}
		if !reflect.DeepEqual(s.LatencyBuckets, buckets) {
			t.Errorf("workers=%d: latency buckets %v, stage rows give %v", workers, s.LatencyBuckets, buckets)
		}
		if want := float64(stats.Log2Quantile(buckets, 0.99)) / 1e6; s.SimP99Ms != want {
			t.Errorf("workers=%d: sim_p99_ms %v, stage rows give %v", workers, s.SimP99Ms, want)
		}
		if s.Sims == 0 || s.PartialSims == 0 || s.PartitionBuilds == 0 || s.ComposedEvals == 0 ||
			s.CacheHits == 0 || s.CacheMisses == 0 {
			t.Errorf("workers=%d: run did not exercise every stage: %+v", workers, s)
		}
	}
}

// TestSessionRejectsSecondRecorder guards "one recorder per run": a
// Runner whose Spans is not its Telemetry collector's recorder would
// split the stage counts across two instruments, so the session refuses.
func TestSessionRejectsSecondRecorder(t *testing.T) {
	r := &Runner{
		Hierarchy: memhier.EmbeddedSoC(), Trace: tinyTrace(t),
		Telemetry: telemetry.NewCollector(2), Spans: span.NewRecorder(2, 64),
	}
	if s, err := r.NewSession(tinySpace()); err == nil {
		s.Close()
		t.Fatal("session accepted a recorder other than the collector's")
	}
}
