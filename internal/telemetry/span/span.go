// Package span is the exploration pipeline's one instrument: typed,
// timestamped spans for every pipeline stage (trace ingest, compile,
// partition build, batch waves, surrogate screening, partial and full
// simulations, compositions, cache probes), aggregated per worker ring
// with zero steady-state allocation and, when the recorder keeps raw
// spans, exportable as Chrome trace-event JSON for Perfetto.
//
// Recording is built for the replay hot path: a worker owns one Ring,
// and a span record is a handful of uncontended atomic adds into padded
// pre-sized per-stage aggregates (duration histogram, nanoseconds, arg
// sum) — no locks, no maps, no allocation — so the AllocsPerRun guard
// on the steady-state replay loop keeps reporting zero. A recorder built
// with a raw span capacity additionally claims one buffer slot per span.
// Aggregate readers (telemetry.Collector.Snapshot, the Prometheus
// handler, the run-summary stage table) merge the per-stage atomics at
// any time; the raw ring entries are read only after the workers have
// quiesced (end of run or signal-driven finalize), so the trace export
// never races a recording worker over span contents.
package span

import (
	"sync/atomic"
	"time"

	"dmexplore/internal/stats"
)

// Stage identifies one pipeline stage. The String names are a stable
// contract: they appear in trace files, run summaries and as Prometheus
// label values (and will become per-island labels in the distributed
// service), so renaming one is a breaking change.
type Stage uint8

const (
	StageTraceIngest     Stage = iota // reading or generating a workload trace
	StageCompile                      // compiling a trace into columnar slabs
	StagePartitionBuild               // invariant-partition replay (incremental path)
	StageBatchWave                    // one evaluation wave across the worker pool
	StageSurrogateScreen              // surrogate ranking/screening of a candidate set
	StagePartialSim                   // partial (incremental) simulation of one config
	StageFullSim                      // full replay simulation of one config
	StageCacheProbe                   // results-cache lookup for one config (arg 1 on a hit)
	StageCompose                      // memoized pool-run composition of one config (no sim)

	NumStages int = iota
)

var stageNames = [NumStages]string{
	StageTraceIngest:     "trace-ingest",
	StageCompile:         "compile",
	StagePartitionBuild:  "partition-build",
	StageBatchWave:       "batch-wave",
	StageSurrogateScreen: "surrogate-screen",
	StagePartialSim:      "partial-sim",
	StageFullSim:         "full-sim",
	StageCacheProbe:      "cache-probe",
	StageCompose:         "compose",
}

// String returns the stage's stable wire name.
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "unknown"
}

// Stages returns every stage in declaration order — the iteration order
// of the metric and summary surfaces, so exposition is deterministic.
func Stages() []Stage {
	out := make([]Stage, NumStages)
	for i := range out {
		out[i] = Stage(i)
	}
	return out
}

// Span is one recorded interval. Start is nanoseconds since the
// recorder's epoch; Arg is a stage-specific payload (events replayed,
// candidates scored, 1 for a cache hit).
type Span struct {
	Stage Stage
	Start int64 // ns since Recorder epoch
	Dur   int64 // ns
	Arg   int64
}

// stageAgg is one stage's merged accounting within a ring: a log2
// duration histogram (whose mass is the span count), total nanoseconds
// and the sum of span args. All atomics, so snapshots can merge mid-run
// without perturbing the worker.
type stageAgg struct {
	hist  [stats.NumLog2Buckets]atomic.Uint64
	nanos atomic.Int64
	args  atomic.Int64
}

// Ring is one worker's instrument: per-stage aggregates plus, when the
// recorder keeps raw spans, a fixed-capacity circular buffer of them.
// Slots are claimed with an atomic counter, so occasional
// multi-goroutine writers (the coordinator ring) stay safe; the raw
// entries are read only after writers quiesce. The struct is padded to
// keep adjacent rings out of each other's cache lines.
type Ring struct {
	epoch  time.Time
	spans  []Span        // raw span buffer; empty for aggregates-only rings
	n      atomic.Uint64 // total spans buffered (wraps over the buffer)
	stages [NumStages]stageAgg

	_ [64]byte
}

// Record accounts one span with an explicit start offset and duration,
// and buffers it when the ring keeps raw spans. Nil-safe: a nil ring
// records nothing, so call sites need no guard.
func (r *Ring) Record(st Stage, start, dur time.Duration, arg int64) {
	if r == nil {
		return
	}
	ns := dur.Nanoseconds()
	agg := &r.stages[st]
	agg.hist[stats.Log2Bucket(ns)].Add(1)
	agg.nanos.Add(ns)
	if arg != 0 {
		agg.args.Add(arg)
	}
	if len(r.spans) == 0 {
		return
	}
	i := r.n.Add(1) - 1
	r.spans[i%uint64(len(r.spans))] = Span{
		Stage: st,
		Start: start.Nanoseconds(),
		Dur:   ns,
		Arg:   arg,
	}
}

// Since records a span that started at the wall-clock instant start and
// ends now — the Begin/End form the instrumentation sites use:
//
//	start := time.Now()
//	...stage work...
//	ring.Since(span.StageFullSim, start, int64(events))
//
// Nil-safe like Record.
func (r *Ring) Since(st Stage, start time.Time, arg int64) {
	if r == nil {
		return
	}
	r.Record(st, start.Sub(r.epoch), time.Since(start), arg)
}

// Len returns how many spans the ring has buffered (including ones the
// buffer has since overwritten); 0 for an aggregates-only ring.
func (r *Ring) Len() uint64 {
	if r == nil {
		return 0
	}
	return r.n.Load()
}

// Recorder owns the rings of one run: one per worker plus a coordinator
// ring for the stages driven by the strategy goroutine (batch waves,
// surrogate screening, ingest, compile).
type Recorder struct {
	epoch time.Time
	rings []Ring
}

// DefaultRingCapacity is the per-ring raw span capacity of a traced
// run: large enough that a multi-thousand-configuration sweep keeps
// every span, small enough (~40 B/span) to stay off any budget.
const DefaultRingCapacity = 1 << 14

// NewRecorder returns a recorder with one ring per worker plus the
// coordinator ring, all sharing one epoch, each buffering up to capacity
// raw spans. workers <= 0 allocates a single worker ring; capacity <= 0
// keeps the per-stage aggregates only (no raw buffer, nothing to
// export) — the recorder every untraced run holds.
func NewRecorder(workers, capacity int) *Recorder {
	if workers <= 0 {
		workers = 1
	}
	epoch := time.Now()
	rings := make([]Ring, workers+1)
	for i := range rings {
		rings[i].epoch = epoch
		if capacity > 0 {
			rings[i].spans = make([]Span, capacity)
		}
	}
	return &Recorder{epoch: epoch, rings: rings}
}

// Ring returns worker i's ring, wrapping like telemetry.Collector.Shard
// when more workers than rings show up. Nil-safe: a nil recorder returns
// a nil ring, which records nothing.
func (r *Recorder) Ring(i int) *Ring {
	if r == nil {
		return nil
	}
	if i < 0 {
		i = -i
	}
	return &r.rings[i%(len(r.rings)-1)]
}

// Coord returns the coordinator ring (ingest, compile, batch waves,
// surrogate screening). Nil-safe.
func (r *Recorder) Coord() *Ring {
	if r == nil {
		return nil
	}
	return &r.rings[len(r.rings)-1]
}

// Workers returns the number of worker rings (the coordinator ring is
// extra).
func (r *Recorder) Workers() int {
	if r == nil {
		return 0
	}
	return len(r.rings) - 1
}

// Epoch returns the recorder's time origin.
func (r *Recorder) Epoch() time.Time {
	if r == nil {
		return time.Time{}
	}
	return r.epoch
}

// StageSnapshot is one stage's merged accounting across every ring — the
// run-summary breakdown row, the Prometheus histogram source and what
// telemetry.Snapshot is derived from.
type StageSnapshot struct {
	Stage   Stage    `json:"-"`
	Name    string   `json:"stage"`
	Count   uint64   `json:"count"`
	Seconds float64  `json:"seconds"`
	Args    int64    `json:"-"` // sum of span args (events replayed, cache hits, ...)
	Buckets []uint64 `json:"-"` // merged log2 duration histogram (ns buckets)
}

// Snapshot merges every ring into one row per stage, in stage order, so
// out[st] is stage st's row. All stages are present (count 0 when never
// recorded) so metric names stay stable across runs.
func (r *Recorder) Snapshot() []StageSnapshot {
	if r == nil {
		return nil
	}
	out := make([]StageSnapshot, NumStages)
	for st := 0; st < NumStages; st++ {
		row := &out[st]
		row.Stage = Stage(st)
		row.Name = Stage(st).String()
		row.Buckets = make([]uint64, stats.NumLog2Buckets)
		var nanos int64
		for i := range r.rings {
			agg := &r.rings[i].stages[st]
			row.Args += agg.args.Load()
			nanos += agg.nanos.Load()
			for b := range agg.hist {
				c := agg.hist[b].Load()
				row.Buckets[b] += c
				row.Count += c
			}
		}
		row.Seconds = float64(nanos) / 1e9
	}
	return out
}

// Dropped returns how many spans were overwritten before export: the sum
// over rings of max(0, recorded - capacity).
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	var dropped uint64
	for i := range r.rings {
		if n := r.rings[i].n.Load(); n > uint64(len(r.rings[i].spans)) {
			dropped += n - uint64(len(r.rings[i].spans))
		}
	}
	return dropped
}
