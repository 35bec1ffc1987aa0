package main

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"time"

	"dmexplore/internal/alloc"
	"dmexplore/internal/core"
	"dmexplore/internal/profile"
	"dmexplore/internal/telemetry/span"
	"dmexplore/internal/trace"
)

// families are the allocator families the alloc layer rows break replay
// time down by. Cheap families come first, so a time-boxed round-robin
// over them reaches every family before a slow single-class one.
var families = []string{"segregated", "buddy", "single-first", "single-next", "single-best", "single-worst"}

// family classifies a configuration's general pool.
func family(cfg alloc.Config) string {
	switch {
	case cfg.General.Classes == "single":
		return "single-" + cfg.General.Fit.String()
	case strings.HasPrefix(cfg.General.Classes, "buddy"):
		return "buddy"
	default:
		return "segregated"
	}
}

// nonRepeatable names the per-layer counts that are not exactly
// repeatable at two workers: which of two concurrent candidates builds a
// shared pool run first decides whether the other is composed or
// replayed partially, and the serve counts depend on poll timing. They
// must not back a claim.
var nonRepeatable = []string{
	"profile.incr.partial_count", "profile.incr.composed_count", "profile.incr.compose_hit_frac",
	"serve.heartbeats", "serve.lease_empty_frac",
}

// measureIngest times the trace layer's two halves separately on every
// input: reading the v2 block file into events, and compiling them into
// columnar slabs.
func (b *bench) measureIngest() (map[string]metric, error) {
	var ingest, compile, rate []float64
	for _, in := range b.inputs {
		for i := 0; i < setupRepeats; i++ {
			end := b.spans.begin("trace ingest")
			start := time.Now()
			tr, err := trace.ReadFile(in.path, benchWorkers, nil)
			if err != nil {
				return nil, err
			}
			d := time.Since(start).Seconds()
			ingest = append(ingest, d)
			rate = append(rate, float64(in.bytes)/(1<<20)/d)
			end()
			end = b.spans.begin("trace compile")
			start = time.Now()
			if _, err := trace.Compile(tr); err != nil {
				return nil, err
			}
			compile = append(compile, time.Since(start).Seconds())
			end()
		}
	}
	return map[string]metric{
		"trace.ingest_s":        {median(ingest), "s"},
		"trace.ingest_mb_per_s": {median(rate), "MiB/s"},
		"trace.compile_s":       {median(compile), "s"},
	}, nil
}

// layerMetrics fills the per-layer metrics of a traced run. Counts and
// layer timings come from repetition 0; untraced is repetition 0 rerun
// with no instrumentation, for the tracing overhead.
func (b *bench) layerMetrics(res *result, reps []*rep, untraced *rep, heapPeak uint64) error {
	put := func(name string, v float64, unit string) { res.Metrics[name] = metric{v, unit} }
	// The islands workers generate their own traces, so the benchmark
	// ingests nothing there; the local workloads overwrite these rows.
	put("trace.ingest_s", 0, "s")
	put("trace.ingest_mb_per_s", 0, "MiB/s")
	put("trace.compile_s", 0, "s")
	r0 := reps[0]
	put("bench.traced_wall_s", r0.wall().Seconds(), "s")
	put("bench.untraced_wall_s", untraced.wall().Seconds(), "s")
	put("bench.trace_overhead_s", r0.wall().Seconds()-untraced.wall().Seconds(), "s")
	put("bench.heap_peak_mb", float64(heapPeak)/(1<<20), "MiB")
	put("bench.failed_frac", ratio(float64(res.Failed), float64(res.Attempted)), "fraction")
	b.propertyShares(put, r0)

	var allocMB, frontS, journalUS []float64
	for _, r := range reps {
		allocMB = append(allocMB, float64(r.allocBytes())/(1<<20))
		frontS = append(frontS, r.frontTime().Seconds())
		for _, ns := range r.journalNS {
			journalUS = append(journalUS, ns/1e3)
		}
	}
	put("runtime.alloc_mb", median(allocMB), "MiB")
	put("pareto.front_s", median(frontS), "s")
	put("telemetry.journal.record_p50_us", percentile(journalUS, 50), "us")
	put("telemetry.journal.bytes", float64(r0.journalBytes), "bytes")

	if err := b.coreMetrics(put, r0); err != nil {
		return err
	}
	serveMetrics(put, reps)
	if b.wl.kind == "islands" {
		for _, fam := range families {
			allocRow(put, fam, nil, 0)
		}
		put("simheap.ns_per_access", 0, "ns")
		incrRow(put, &incrStats{}, r0)
		return nil
	}
	return b.replayLayers(put, r0)
}

// propertyShares reports the input properties later claims rely on: the
// fast-path fractions, the slowest decile's share of evaluation time and
// the mean event count per trace.
func (b *bench) propertyShares(put func(string, float64, string), r *rep) {
	var partial, composed, events float64
	for _, tr := range r.runs {
		for _, res := range tr.results {
			if res.Composed {
				composed++
			} else if res.Incremental {
				partial++
			}
		}
		events += float64(tr.in.events)
	}
	n, _, ms := r.evals()
	put("bench.partial_frac", ratio(partial, float64(n)), "fraction")
	put("bench.composed_frac", ratio(composed, float64(n)), "fraction")
	put("bench.slow10_share", slowDecileShare(ms), "fraction")
	put("bench.events", events/float64(len(r.runs)), "count")
}

// slowDecileShare is the share of total time taken by the slowest 10%.
func slowDecileShare(ms []float64) float64 {
	if len(ms) == 0 {
		return 0
	}
	s := append([]float64(nil), ms...)
	sort.Sort(sort.Reverse(sort.Float64Slice(s)))
	k := (len(s) + 9) / 10
	return ratio(sum(s[:k]), sum(s))
}

// coreMetrics reports the batch waves, pool idleness and surrogate
// screening of repetition 0 from the program's own span recorders.
func (b *bench) coreMetrics(put func(string, float64, string), r *rep) error {
	var waves []float64
	var screen, preds, out, rhoA, rhoF float64
	var models int
	for _, tr := range r.runs {
		if tr.rec != nil {
			var buf bytes.Buffer
			if err := tr.rec.WriteTrace(&buf); err != nil {
				return err
			}
			events, _, err := span.ReadTrace(buf.Bytes())
			if err != nil {
				return err
			}
			for _, ev := range events {
				if ev.Phase == "X" && ev.Name == span.StageBatchWave.String() {
					waves = append(waves, ev.Dur/1e3)
				}
			}
			for _, st := range tr.rec.Snapshot() {
				if st.Stage == span.StageSurrogateScreen {
					screen += st.Seconds
				}
			}
		}
		if s := tr.sur; s != nil {
			preds += float64(s.Predictions)
			out += float64(s.ScreenedOut)
			rhoA += s.Spearman[objectives[0]]
			rhoF += s.Spearman[objectives[1]]
			models++
		}
	}
	put("core.waves", float64(len(waves)), "count")
	put("core.wave_p50_ms", percentile(waves, 50), "ms")
	put("core.wave_tail_ms", percentile(waves, tailFor(len(waves))), "ms")
	_, _, ms := r.evals()
	put("core.pool_idle_frac", 1-ratio(sum(ms)/1e3, benchWorkers*r.wall().Seconds()), "fraction")

	put("core.surrogate.screen_s", screen, "s")
	put("core.surrogate.predictions", preds, "count")
	put("core.surrogate.screened_out", out, "count")
	put("core.surrogate.spearman_accesses", ratio(rhoA, float64(models)), "rho")
	put("core.surrogate.spearman_footprint", ratio(rhoF, float64(models)), "rho")
	return nil
}

// famStats accumulates fresh full replays of one allocator family.
type famStats struct {
	ms       []float64
	events   float64
	accesses float64
}

// incrStats accumulates the incremental layer's timed calls.
type incrStats struct {
	partitions []float64 // s per Partition build
	poolReplay []float64 // s per PoolReplay
	composeUS  []float64 // us per Compose
	partialMS  []float64 // ms per RunPartial
}

// replayLayers times profile.Replayer calls on repetition 0's own
// configurations. Every partial or composed result is rebuilt through
// Partition, PoolReplay, Compose and RunPartial and compared bit for bit
// with the session's result and a fresh full Run; further fully
// evaluated configurations are replayed round-robin across families.
func (b *bench) replayLayers(put func(string, float64, string), r *rep) error {
	end := b.spans.begin("layer replay")
	defer end()
	fams := map[string]*famStats{}
	for _, fam := range families {
		fams[fam] = &famStats{}
	}
	rp := profile.NewReplayer()
	fullRun := func(ct *trace.Compiled, res core.Result) error {
		cfg, _, err := b.space.Config(res.Index)
		if err != nil {
			return err
		}
		start := time.Now()
		m, err := rp.Run(ct, cfg, b.hier, profile.Options{})
		d := time.Since(start)
		if err != nil {
			return err
		}
		f := fams[family(cfg)]
		f.ms = append(f.ms, float64(d.Nanoseconds())/1e6)
		f.events += float64(ct.Len())
		f.accesses += float64(m.Accesses)
		if metricsHash(m) != metricsHash(res.Metrics) {
			b.mismatch("trace %s, configuration %d: result differs from a fresh full replay", ct.Name, res.Index)
		}
		return nil
	}

	type pending struct {
		ct  *trace.Compiled
		res core.Result
	}
	byFam := map[string][]pending{}
	is := &incrStats{}
	for _, tr := range r.runs {
		ct := tr.in.ct
		parts := map[string]*profile.Partition{}
		for _, res := range tr.results {
			if res.Err != nil || res.Metrics == nil {
				continue
			}
			cfg, _, err := b.space.Config(res.Index)
			if err != nil {
				return err
			}
			if !res.Incremental {
				byFam[family(cfg)] = append(byFam[family(cfg)], pending{ct, res})
				continue
			}
			if err := b.fastPath(rp, ct, cfg, res, parts, is); err != nil {
				return err
			}
			if err := fullRun(ct, res); err != nil {
				return err
			}
		}
	}

	// Round-robin over families for half of --seconds, so the budget
	// reaches every family, including rare slow ones (single-class
	// worst fit).
	deadline := time.Now().Add(time.Duration(b.o.seconds / 2 * float64(time.Second)))
	for round := 0; time.Now().Before(deadline); round++ {
		more := false
		for _, fam := range families {
			if round >= len(byFam[fam]) || !time.Now().Before(deadline) {
				continue
			}
			more = true
			p := byFam[fam][round]
			if err := fullRun(p.ct, p.res); err != nil {
				return err
			}
		}
		if !more {
			break
		}
	}

	var busy, accesses float64
	for _, fam := range families {
		f := fams[fam]
		allocRow(put, fam, f.ms, f.events)
		busy += sum(f.ms) * 1e6
		accesses += f.accesses
	}
	put("simheap.ns_per_access", ratio(busy, accesses), "ns")
	incrRow(put, is, r)
	return nil
}

// fastPath rebuilds one partial or composed result through the
// incremental layer's public calls, timing each, and checks that
// Compose and RunPartial reproduce the session's result.
func (b *bench) fastPath(rp *profile.Replayer, ct *trace.Compiled, cfg alloc.Config, res core.Result,
	parts map[string]*profile.Partition, is *incrStats) error {
	// The fixed-pool signature: every fixed pool's parameters and the
	// general pool's layer, the fields the session keys partitions by.
	key := fmt.Sprintf("%+v|%s", cfg.Fixed, cfg.General.Layer)
	part := parts[key]
	if part == nil {
		start := time.Now()
		var err error
		if part, err = rp.Partition(ct, cfg, b.hier); err != nil {
			return err
		}
		is.partitions = append(is.partitions, time.Since(start).Seconds())
		parts[key] = part
	}
	start := time.Now()
	run, ok := rp.PoolReplay(part, cfg, b.hier)
	is.poolReplay = append(is.poolReplay, time.Since(start).Seconds())
	if !ok {
		b.mismatch("trace %s, configuration %d: served by the fast path, but PoolReplay declines", ct.Name, res.Index)
		return nil
	}
	start = time.Now()
	composed, ok := rp.Compose(ct, part, run, cfg, b.hier)
	is.composeUS = append(is.composeUS, float64(time.Since(start).Nanoseconds())/1e3)
	start = time.Now()
	partial, ok2 := rp.RunPartial(ct, part, cfg, b.hier)
	is.partialMS = append(is.partialMS, float64(time.Since(start).Nanoseconds())/1e6)
	if !ok || !ok2 || metricsHash(composed) != metricsHash(res.Metrics) || metricsHash(partial) != metricsHash(res.Metrics) {
		b.mismatch("trace %s, configuration %d: Compose or RunPartial differs from the session's result", ct.Name, res.Index)
	}
	return nil
}

func allocRow(put func(string, float64, string), fam string, ms []float64, events float64) {
	p := "alloc." + fam + "."
	put(p+"count", float64(len(ms)), "count")
	put(p+"busy_s", sum(ms)/1e3, "s")
	put(p+"p50_ms", percentile(ms, 50), "ms")
	put(p+"tail_ms", percentile(ms, tailFor(len(ms))), "ms")
	put(p+"ns_per_event", ratio(sum(ms)*1e6, events), "ns")
}

func incrRow(put func(string, float64, string), is *incrStats, r *rep) {
	var partial, composed, full, skipped, replayed float64
	for _, tr := range r.runs {
		for _, res := range tr.results {
			switch {
			case res.Composed:
				composed++
			case res.Incremental:
				partial++
			default:
				full++
			}
			skipped += float64(res.EventsSkipped)
			replayed += float64(tr.in.events)
		}
	}
	p := "profile.incr."
	put(p+"partial_count", partial, "count")
	put(p+"composed_count", composed, "count")
	put(p+"full_count", full, "count")
	put(p+"compose_hit_frac", ratio(composed, partial+composed), "fraction")
	put(p+"events_skipped_frac", ratio(skipped, replayed), "fraction")
	put(p+"partial_p50_ms", percentile(is.partialMS, 50), "ms")
	put(p+"partial_busy_s", sum(is.partialMS)/1e3, "s")
	put(p+"compose_p50_us", percentile(is.composeUS, 50), "us")
	put(p+"partition_build_s", sum(is.partitions), "s")
	put(p+"pool_replay_s", sum(is.poolReplay), "s")
}

// tailFor is the highest of the usual percentiles that leaves at least
// ten of n samples beyond it (the median when none does).
func tailFor(n int) float64 {
	for _, p := range []float64{99.9, 99, 95, 90, 75} {
		if float64(n)*(1-p/100) >= 10 {
			return p
		}
	}
	return 50
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
