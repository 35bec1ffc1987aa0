// Package telemetry instruments the exploration engine: a run snapshot
// derived from the span recorder's per-stage aggregates plus per-worker
// counters for what no stage times, an append-only JSONL run journal, a
// throttled terminal progress reporter with ETA, and an optional
// expvar/pprof/Prometheus HTTP endpoint for long sweeps.
//
// Every timed stage — simulations, partition builds, compositions,
// cache probes — is counted and put into a histogram in exactly one
// place: the worker's span.Ring. The Collector keeps plain atomic
// counters only for facts no stage records (memo hits, errors, busy
// time, events skipped, and the coordinator-written stale-cache and
// surrogate counters). Readers (the progress line, expvar, /metrics,
// the final run summary) merge the rings and shards into a Snapshot at
// whatever rate they like without perturbing the workers.
package telemetry

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"dmexplore/internal/stats"
	"dmexplore/internal/telemetry/span"
)

// Shard accumulates the counters of one worker that no span stage
// records. All fields are atomics so concurrent snapshots are race-free,
// but each shard is written by a single worker, so the adds never
// contend. The struct is padded to keep adjacent shards out of each
// other's cache lines.
type Shard struct {
	eventsSkipped atomic.Uint64 // trace events partial and composed evaluations avoided replaying
	memoHits      atomic.Uint64 // served from the in-run duplicate memo

	errConfig atomic.Uint64 // errors materializing a configuration
	errSim    atomic.Uint64 // errors building or replaying a configuration

	busyNanos atomic.Int64 // wall time spent working on configurations

	_ [64]byte // keep the next shard off this one's cache lines
}

// AddSkipped records trace events an incremental evaluation avoided
// replaying relative to a full replay.
func (s *Shard) AddSkipped(events int) { s.eventsSkipped.Add(uint64(events)) }

// MemoHit records a configuration served from the in-run duplicate memo.
func (s *Shard) MemoHit() { s.memoHits.Add(1) }

// ConfigError records a failure to materialize a configuration.
func (s *Shard) ConfigError() { s.errConfig.Add(1) }

// SimError records a failure while building or replaying a configuration.
func (s *Shard) SimError() { s.errSim.Add(1) }

// AddBusy records wall time a worker spent processing configurations
// (simulated or cache-served); utilization = busy / (workers × elapsed).
func (s *Shard) AddBusy(d time.Duration) { s.busyNanos.Add(d.Nanoseconds()) }

// Collector owns the instruments of one run: its span recorder and one
// shard per worker. Hand each worker its own ring and shard; snapshot
// from anywhere.
type Collector struct {
	start      time.Time
	spans      *span.Recorder
	shards     []Shard
	started    atomic.Int64  // largest worker pool a session started on this collector
	cacheStale atomic.Uint64 // stale results-cache entries, set by the cache owner

	// Surrogate-screening counters. These are written by the search
	// coordinator (never by workers), so they live on the collector like
	// cacheStale rather than in a shard.
	surrogatePredictions atomic.Uint64 // candidate scores computed by the surrogate
	surrogateScreened    atomic.Uint64 // candidates the surrogate filtered out of waves
	surrogateTrained     atomic.Uint64 // exact results absorbed into the surrogate
}

// NewCollector returns a collector over an aggregates-only recorder with
// one ring and one shard per worker, and the run's wall clock started.
// workers <= 0 allocates a single worker.
func NewCollector(workers int) *Collector {
	return NewCollectorFor(span.NewRecorder(workers, 0))
}

// NewCollectorFor returns a collector whose timed-stage counts derive
// from rec (which must be non-nil), with one shard per recorder worker
// ring — the form a traced run uses, so its one recorder both buffers
// raw spans and feeds the snapshot.
func NewCollectorFor(rec *span.Recorder) *Collector {
	return &Collector{start: time.Now(), spans: rec, shards: make([]Shard, rec.Workers())}
}

// Spans returns the run's span recorder.
func (c *Collector) Spans() *span.Recorder { return c.spans }

// Shard returns worker i's shard (wrapping when more workers than shards
// show up, which degrades to sharing, never to a crash).
func (c *Collector) Shard(i int) *Shard {
	if i < 0 {
		i = -i
	}
	return &c.shards[i%len(c.shards)]
}

// Workers returns the shard count.
func (c *Collector) Workers() int { return len(c.shards) }

// StartWorkers records that a session started a pool of n workers.
// Utilization divides busy time by the largest such pool (the shard
// count when no session reported), so a run that starts fewer workers
// than the collector has shards is not reported as partly idle.
func (c *Collector) StartWorkers(n int) {
	for {
		cur := c.started.Load()
		if int64(n) <= cur || c.started.CompareAndSwap(cur, int64(n)) {
			return
		}
	}
}

// AddCacheStale records stale results-cache entries (version-mismatched
// at load, or superseded by a recomputed result).
func (c *Collector) AddCacheStale(n uint64) { c.cacheStale.Add(n) }

// AddSurrogatePredictions records candidate scores computed by the
// surrogate ranking stage.
func (c *Collector) AddSurrogatePredictions(n uint64) { c.surrogatePredictions.Add(n) }

// AddSurrogateScreened records candidates the surrogate dropped from an
// evaluation wave — configurations that would have been simulated exactly
// without the screening stage.
func (c *Collector) AddSurrogateScreened(n uint64) { c.surrogateScreened.Add(n) }

// AddSurrogateTrained records exact results absorbed into the surrogate
// models (online updates plus warm-start replay).
func (c *Collector) AddSurrogateTrained(n uint64) { c.surrogateTrained.Add(n) }

// Snapshot is a merged, self-consistent-enough view of the stage
// aggregates and shards at one instant (counters are read individually; a snapshot taken mid-run can
// be off by the records in flight, which is fine for progress and
// expvar, and exact once the run has completed).
type Snapshot struct {
	Workers    int     `json:"workers"`
	ElapsedSec float64 `json:"elapsed_sec"`

	Sims         uint64  `json:"sims"`
	SimSecTotal  float64 `json:"sim_sec_total"`
	Events       uint64  `json:"events_replayed"`
	EventsPerSec float64 `json:"events_per_sec"`

	// Incremental-evaluation breakdown: PartialSims of Sims were served
	// by the partial-replay path, skipping EventsSkipped trace events;
	// PartitionBuilds is the number of once-per-signature invariant
	// replays paid to enable them. ComposedEvals are evaluations served
	// by the pool-run memo — pure composition, no simulation — and are
	// counted in Done() but not in Sims.
	PartialSims     uint64 `json:"partial_sims,omitempty"`
	EventsSkipped   uint64 `json:"events_skipped,omitempty"`
	PartitionBuilds uint64 `json:"partition_builds,omitempty"`
	ComposedEvals   uint64 `json:"composed_evals,omitempty"`

	CacheHits   uint64 `json:"cache_hits"`
	CacheMisses uint64 `json:"cache_misses"`
	CacheStale  uint64 `json:"cache_stale"`
	MemoHits    uint64 `json:"memo_hits"`

	// Surrogate-screening breakdown: the learned models scored
	// SurrogatePredictions candidates, dropped SurrogateScreened of them
	// from evaluation waves, and were trained on SurrogateTrained exact
	// results (online plus warm-start).
	SurrogatePredictions uint64 `json:"surrogate_predictions,omitempty"`
	SurrogateScreened    uint64 `json:"surrogate_screened,omitempty"`
	SurrogateTrained     uint64 `json:"surrogate_trained,omitempty"`

	ErrorsConfig uint64 `json:"errors_config"`
	ErrorsSim    uint64 `json:"errors_sim"`

	// Utilization is busy worker time over available worker time, 0..1.
	Utilization float64 `json:"worker_utilization"`

	// Simulation latency quantiles (upper bounds, exact to within one
	// power of two) merged from the simulation stages' histograms.
	SimP50Ms float64 `json:"sim_p50_ms"`
	SimP90Ms float64 `json:"sim_p90_ms"`
	SimP99Ms float64 `json:"sim_p99_ms"`

	// LatencyBuckets are the merged log2 histogram counts (bucket i as in
	// stats.Log2Bucket over nanoseconds), for offline analysis.
	LatencyBuckets []uint64 `json:"latency_buckets,omitempty"`
}

// simStages are the stages that replay trace events: their merged
// nanoseconds, args (events replayed) and histograms are the snapshot's
// simulation time, events and latency distribution.
var simStages = [...]span.Stage{span.StageFullSim, span.StagePartialSim, span.StagePartitionBuild}

// Snapshot merges the recorder's stage aggregates and every shard.
func (c *Collector) Snapshot() Snapshot {
	stages := c.spans.Snapshot()
	probe := stages[span.StageCacheProbe]
	s := Snapshot{
		Workers:    len(c.shards),
		CacheStale: c.cacheStale.Load(),

		Sims:            stages[span.StageFullSim].Count + stages[span.StagePartialSim].Count,
		PartialSims:     stages[span.StagePartialSim].Count,
		PartitionBuilds: stages[span.StagePartitionBuild].Count,
		ComposedEvals:   stages[span.StageCompose].Count,
		// A cache-probe span's arg is 1 on a hit. A snapshot racing a
		// probe may see its arg before its count; clamp, never wrap.
		CacheHits:   uint64(probe.Args),
		CacheMisses: probe.Count - min(probe.Count, uint64(probe.Args)),

		SurrogatePredictions: c.surrogatePredictions.Load(),
		SurrogateScreened:    c.surrogateScreened.Load(),
		SurrogateTrained:     c.surrogateTrained.Load(),
	}
	buckets := make([]uint64, stats.NumLog2Buckets)
	for _, st := range simStages {
		row := &stages[st]
		s.SimSecTotal += row.Seconds
		s.Events += uint64(row.Args)
		for b, n := range row.Buckets {
			buckets[b] += n
		}
	}
	var busyNanos int64
	for i := range c.shards {
		sh := &c.shards[i]
		s.EventsSkipped += sh.eventsSkipped.Load()
		s.MemoHits += sh.memoHits.Load()
		s.ErrorsConfig += sh.errConfig.Load()
		s.ErrorsSim += sh.errSim.Load()
		busyNanos += sh.busyNanos.Load()
	}
	s.ElapsedSec = time.Since(c.start).Seconds()
	if s.ElapsedSec > 0 {
		pool := c.started.Load()
		if pool == 0 {
			pool = int64(len(c.shards))
		}
		s.EventsPerSec = float64(s.Events) / s.ElapsedSec
		s.Utilization = float64(busyNanos) / 1e9 / (s.ElapsedSec * float64(pool))
	}
	s.SimP50Ms = float64(stats.Log2Quantile(buckets, 0.50)) / 1e6
	s.SimP90Ms = float64(stats.Log2Quantile(buckets, 0.90)) / 1e6
	s.SimP99Ms = float64(stats.Log2Quantile(buckets, 0.99)) / 1e6
	s.LatencyBuckets = buckets
	return s
}

// Done returns the configurations accounted for so far: executed
// simulations plus cache-, memo- and composition-served ones.
func (s Snapshot) Done() uint64 {
	return s.Sims + s.CacheHits + s.MemoHits + s.ComposedEvals
}

// PartialSimRate returns the fraction of executed simulations served by
// the incremental partial-replay path (0 when nothing ran).
func (s Snapshot) PartialSimRate() float64 {
	if s.Sims == 0 {
		return 0
	}
	return float64(s.PartialSims) / float64(s.Sims)
}

// CacheHitRate returns hits / lookups (0 when the cache was never
// consulted).
func (s Snapshot) CacheHitRate() float64 {
	lookups := s.CacheHits + s.CacheMisses
	if lookups == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(lookups)
}

// String renders the one-line human summary the tools print after a run.
func (s Snapshot) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d sims in %.2fs", s.Sims, s.ElapsedSec)
	if s.EventsPerSec > 0 {
		fmt.Fprintf(&b, ", %.3g events/s", s.EventsPerSec)
	}
	if s.CacheHits+s.CacheMisses > 0 {
		fmt.Fprintf(&b, ", cache %.0f%% hit", 100*s.CacheHitRate())
	}
	if s.MemoHits > 0 {
		fmt.Fprintf(&b, ", %d memo hits", s.MemoHits)
	}
	if s.PartialSims > 0 || s.ComposedEvals > 0 {
		fmt.Fprintf(&b, ", %.0f%% partial sims (%d partitions, %.3g events skipped)",
			100*s.PartialSimRate(), s.PartitionBuilds, float64(s.EventsSkipped))
	}
	if s.ComposedEvals > 0 {
		fmt.Fprintf(&b, ", %d composed (memo)", s.ComposedEvals)
	}
	if s.SurrogatePredictions > 0 {
		fmt.Fprintf(&b, ", surrogate scored %d / screened out %d (trained on %d)",
			s.SurrogatePredictions, s.SurrogateScreened, s.SurrogateTrained)
	}
	fmt.Fprintf(&b, ", sim p50/p99 %.3g/%.3gms", s.SimP50Ms, s.SimP99Ms)
	fmt.Fprintf(&b, ", workers %.0f%% busy", 100*s.Utilization)
	if n := s.ErrorsConfig + s.ErrorsSim; n > 0 {
		fmt.Fprintf(&b, ", %d errors", n)
	}
	return b.String()
}
