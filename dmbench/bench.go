package main

import (
	"bufio"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"

	"dmexplore/internal/core"
	"dmexplore/internal/memhier"
	"dmexplore/internal/pareto"
	"dmexplore/internal/profile"
	"dmexplore/internal/telemetry"
	"dmexplore/internal/telemetry/span"
	"dmexplore/internal/trace"
	wlgen "dmexplore/internal/workload"
)

// tracedTraces caps the traces of a traced run, which also rebuilds
// every fast-path result and times full replays, so it stays within the
// run's time limit. A traced run measures one repetition.
const tracedTraces = 2

// setupRepeats is how many times a run measures set-up per trace;
// setup_s is the median over every measurement.
const setupRepeats = 5

// searchSeed is the first configuration-sample and search seed; walk w
// on every trace uses searchSeed+w. The seeds are part of each
// workload's definition: --seed varies only the generated traces, so
// runs at different seeds do the same kind of work and every
// repetition of a run does the same work.
const searchSeed uint64 = 1

// bench is one benchmark run of one workload.
type bench struct {
	o     options
	wl    *workload
	hier  *memhier.Hierarchy
	space *core.Space

	inputs []*input

	// extent is the bounding box of every front seen, in the hvBox
	// layout, reported beside front_hv.
	extent [4]float64

	spans *benchSpans

	notes      []string
	mismatches []string
}

// input is one generated trace of a run.
type input struct {
	seed   uint64 // generator seed, derived from --seed
	path   string // v2 block file (local workloads)
	bytes  int64
	events int
	ct     *trace.Compiled
}

// traceRun is one repetition's work on one input.
type traceRun struct {
	in        *input
	wall, cpu time.Duration
	setup     time.Duration // islands: coordinator start + submit until the first result line
	frontTime time.Duration
	alloc     uint64
	hv        float64
	fp        uint64

	results []core.Result      // local workloads, in evaluation order
	records []telemetry.Record // islands journal

	sur   *core.SurrogateReport
	rec   *span.Recorder
	serve *serveStats
}

// rep is one repetition of the workload: one traceRun per input.
type rep struct {
	k    int
	runs []*traceRun

	journalNS    []float64 // traced runs: ns per journal Record call
	journalBytes int64
}

func (r *rep) wall() (d time.Duration) {
	for _, tr := range r.runs {
		d += tr.wall
	}
	return d
}

func (r *rep) allocBytes() (n uint64) {
	for _, tr := range r.runs {
		n += tr.alloc
	}
	return n
}

func (r *rep) frontTime() (d time.Duration) {
	for _, tr := range r.runs {
		d += tr.frontTime
	}
	return d
}

// fp combines the per-input fingerprints.
func (r *rep) fp() uint64 {
	h := fnv.New64a()
	for _, tr := range r.runs {
		writeUints(h, tr.in.seed, tr.fp)
	}
	return h.Sum64()
}

// evals counts the run's exact evaluations and failed ones, and
// collects the per-evaluation times in ms.
func (tr *traceRun) evals() (n, failed int, ms []float64) {
	for _, res := range tr.results {
		n++
		if res.Err != nil {
			failed++
			continue
		}
		ms = append(ms, float64(res.Duration.Nanoseconds())/1e6)
	}
	for _, rec := range tr.records {
		n++
		if rec.Error != "" {
			failed++
			continue
		}
		ms = append(ms, rec.DurationMS)
	}
	return n, failed, ms
}

// evals sums traceRun.evals over the repetition's runs.
func (r *rep) evals() (n, failed int, ms []float64) {
	for _, tr := range r.runs {
		tn, tf, tms := tr.evals()
		n, failed, ms = n+tn, failed+tf, append(ms, tms...)
	}
	return n, failed, ms
}

func newBench(o options, wl *workload) *bench {
	b := &bench{o: o, wl: wl, hier: memhier.EmbeddedSoC(), space: wl.space(), spans: newBenchSpans(),
		extent: [4]float64{math.Inf(1), math.Inf(-1), math.Inf(1), math.Inf(-1)}}
	traces := wl.traces
	if o.traced {
		traces = min(traces, tracedTraces)
	}
	for t := 0; t < traces; t++ {
		b.inputs = append(b.inputs, &input{seed: repSeed(o.seed, t)})
	}
	return b
}

func (b *bench) note(format string, args ...any) {
	b.notes = append(b.notes, fmt.Sprintf(format, args...))
}

func (b *bench) mismatch(format string, args ...any) {
	b.mismatches = append(b.mismatches, fmt.Sprintf(format, args...))
}

// run generates the inputs, measures set-up and the repetitions, checks
// the outputs and assembles the reported metrics.
func (b *bench) run() (*result, error) {
	var heap *heapSampler
	if b.o.traced {
		heap = startHeapSampler()
	}
	var setups []float64
	layerSetup := map[string]metric{}
	if b.wl.kind != "islands" {
		for _, in := range b.inputs {
			if err := b.writeTrace(in); err != nil {
				return nil, err
			}
			s, err := b.measureSetup(in)
			if err != nil {
				return nil, err
			}
			setups = append(setups, s...)
		}
		if b.o.traced {
			var err error
			if layerSetup, err = b.measureIngest(); err != nil {
				return nil, err
			}
		}
	}

	reps, err := b.measure(b.o.traced)
	if err != nil {
		return nil, err
	}
	if b.wl.kind == "islands" {
		for _, r := range reps {
			for _, tr := range r.runs {
				setups = append(setups, tr.setup.Seconds())
			}
		}
	}
	if err := b.check(reps); err != nil {
		return nil, err
	}

	res := &result{Metrics: map[string]metric{}}
	for _, r := range reps {
		n, failed, _ := r.evals()
		res.Attempted += n
		res.Failed += failed
		for _, tr := range r.runs {
			if s := tr.serve; s != nil {
				res.Attempted += s.requests
				res.Failed += s.non2xx + s.released
			}
		}
	}
	if b.o.traced {
		heapPeak := heap.stop()
		untraced, err := b.repeat(0, false)
		if err != nil {
			return nil, err
		}
		if err := b.layerMetrics(res, reps, untraced, heapPeak); err != nil {
			return nil, err
		}
		for name, m := range layerSetup {
			res.Metrics[name] = m
		}
		if err := b.writeSpans(reps[0].runs[0].rec); err != nil {
			return nil, err
		}
	} else {
		b.endToEnd(res, reps, setups)
	}
	res.Correct = len(b.mismatches) == 0
	return res, nil
}

// endToEnd fills the end-to-end metrics. A walk is one sweep or search
// (or island job) on one trace, from the first evaluation request until
// its Pareto front is in hand; wall_s, evals_per_s, cpu_s and front_hv
// are medians over every walk of the run, so one trace whose walk meets
// an unusually slow configuration does not decide the figure.
func (b *bench) endToEnd(res *result, reps []*rep, setups []float64) {
	var wall, rate, cpu, hv, all []float64
	for _, r := range reps {
		for _, tr := range r.runs {
			n, _, ms := tr.evals()
			wall = append(wall, tr.wall.Seconds())
			rate = append(rate, float64(n)/tr.wall.Seconds())
			cpu = append(cpu, tr.cpu.Seconds())
			hv = append(hv, tr.hv)
			all = append(all, ms...)
		}
	}
	put := func(name string, v float64, unit string) { res.Metrics[name] = metric{v, unit} }
	put("wall_s", median(wall), "s")
	put("evals_per_s", median(rate), "1/s")
	put("eval_p50_ms", percentile(all, 50), "ms")
	put("eval_tail_ms", percentile(all, b.wl.tailPct), "ms")
	put("cpu_s", median(cpu), "s")
	put("setup_s", median(setups), "s")
	put("front_hv", median(hv), "fraction")
	b.note("%d repetitions x %d traces, %d evaluations; eval_tail_ms is p%g", len(reps), len(b.inputs), len(all), b.wl.tailPct)
	b.note("walk walls %.3v", wall)
	b.note("fronts span accesses [%.4g, %.4g], footprint [%.4g, %.4g]; front_hv box %.4g", b.extent[0], b.extent[1], b.extent[2], b.extent[3], b.wl.hvBox)
	b.note("walk cpu %.3v", cpu)
	if beyond := float64(len(all)) * (1 - b.wl.tailPct/100); beyond < 10 {
		b.note("only %.0f evaluations lie beyond p%g (fewer than ten)", beyond, b.wl.tailPct)
	}
}

// writeTrace generates one input's trace from its seed and writes it as
// a v2 block file: the program under test only ingests that file.
func (b *bench) writeTrace(in *input) error {
	gen, err := wlgen.New(b.wl.trace, in.seed, b.o.scale)
	if err != nil {
		return err
	}
	tr, err := gen.Generate()
	if err != nil {
		return err
	}
	in.events = tr.Len()
	in.path = filepath.Join(b.o.out, fmt.Sprintf("%s-seed%d-scale%d.v2", b.wl.trace, in.seed, b.o.scale))
	f, err := os.Create(in.path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	err = trace.WriteBinaryV2(w, tr)
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	fi, err := os.Stat(in.path)
	if err != nil {
		return err
	}
	in.bytes = fi.Size()
	return nil
}

// measureSetup times ingest + compile + session open of one input
// setupRepeats times, keeping the last compiled trace.
func (b *bench) measureSetup(in *input) ([]float64, error) {
	var out []float64
	for i := 0; i < setupRepeats; i++ {
		end := b.spans.begin("setup")
		start := time.Now()
		ct, err := trace.ReadCompiledFile(in.path, benchWorkers, nil)
		if err != nil {
			return nil, err
		}
		sess, err := b.runner(ct).NewSession(b.space)
		if err != nil {
			return nil, err
		}
		sess.Close()
		out = append(out, time.Since(start).Seconds())
		end()
		in.ct = ct
	}
	if in.ct.Len() != in.events {
		return nil, fmt.Errorf("ingested %d events, generated %d", in.ct.Len(), in.events)
	}
	return out, nil
}

func (b *bench) runner(ct *trace.Compiled) *core.Runner {
	return &core.Runner{Hierarchy: b.hier, Compiled: ct, Workers: benchWorkers, Incremental: b.wl.incremental}
}

// measure repeats the workload for --seconds: it starts another
// repetition only while one more, as long as the last, still fits. A
// traced run measures one repetition.
func (b *bench) measure(traced bool) ([]*rep, error) {
	deadline := time.Now().Add(time.Duration(b.o.seconds * float64(time.Second)))
	var reps []*rep
	last := time.Duration(0)
	for k := 0; k == 0 || !traced && time.Now().Add(last).Before(deadline); k++ {
		repStart := time.Now()
		r, err := b.repeat(k, traced)
		if err != nil {
			return nil, err
		}
		last = time.Since(repStart)
		reps = append(reps, r)
	}
	return reps, nil
}

// repeat runs one repetition: the workload once on every input.
func (b *bench) repeat(k int, traced bool) (*rep, error) {
	end := b.spans.begin(fmt.Sprintf("rep %d", k))
	defer end()
	r := &rep{k: k}
	if b.wl.kind == "islands" {
		for _, in := range b.inputs {
			tr, err := b.islandJob(in, traced)
			if err != nil {
				return nil, err
			}
			r.runs = append(r.runs, tr)
		}
		return r, nil
	}

	jpath := filepath.Join(b.o.out, b.wl.name+"-journal.jsonl")
	journal, err := telemetry.CreateJournal(jpath)
	if err != nil {
		return nil, err
	}
	var mu sync.Mutex
	var journalErr error
	observe := func(res core.Result) {
		start := time.Now()
		err := journal.Record(res.JournalRecord())
		d := time.Since(start)
		mu.Lock()
		if err != nil && journalErr == nil {
			journalErr = err
		}
		if traced {
			r.journalNS = append(r.journalNS, float64(d.Nanoseconds()))
		}
		mu.Unlock()
	}
	for _, in := range b.inputs {
		tr, err := b.localRun(in, observe, traced)
		if err != nil {
			journal.Close()
			return nil, err
		}
		r.runs = append(r.runs, tr)
	}
	if err := journal.Close(); err != nil {
		return nil, err
	}
	if journalErr != nil {
		return nil, journalErr
	}
	if fi, err := os.Stat(jpath); err == nil {
		r.journalBytes = fi.Size()
	}
	return r, nil
}

// localRun runs the workload's walks on one input in this process with
// a fresh runner per walk, so every session cache starts empty, then
// extracts the Pareto front.
func (b *bench) localRun(in *input, observe func(core.Result), traced bool) (*traceRun, error) {
	tr := &traceRun{in: in}
	if b.wl.surrogate {
		tr.sur = &core.SurrogateReport{}
	}
	if traced {
		tr.rec = span.NewRecorder(benchWorkers, span.DefaultRingCapacity)
	}
	alloc0, cpu0 := heapAllocs(), cpuTime()
	start := time.Now()
	for w := 0; w < b.wl.walks; w++ {
		runner := b.runner(in.ct)
		runner.Observer = observe
		runner.Spans = tr.rec
		if tr.sur != nil {
			runner.Surrogate = &core.SurrogateOptions{Report: tr.sur}
		}
		walk, err := b.walk(runner, searchSeed+uint64(w))
		if err != nil {
			return nil, err
		}
		tr.results = append(tr.results, walk...)
	}
	endFront := b.spans.begin("pareto front")
	frontStart := time.Now()
	front, points, err := core.ParetoSet(core.Feasible(tr.results), objectives)
	tr.frontTime = time.Since(frontStart)
	endFront()
	tr.wall = time.Since(start)
	tr.cpu = cpuTime() - cpu0
	tr.alloc = heapAllocs() - alloc0
	if err != nil {
		return nil, err
	}
	tr.hv = b.frontHV(points)
	if b.wl.kind == "sweep" {
		tr.fp = sweepFingerprint(tr.results)
	} else {
		tr.fp = searchFingerprint(tr.results, front)
	}
	return tr, nil
}

// walk runs one sweep or search with the given sample or search seed.
func (b *bench) walk(runner *core.Runner, seed uint64) ([]core.Result, error) {
	switch b.wl.kind {
	case "sweep":
		return runner.Sample(b.space, b.wl.size, seed)
	case "hillclimb":
		weights := []core.Weighted{{Objective: objectives[0], Weight: 1}, {Objective: objectives[1], Weight: 1}}
		sr, err := runner.HillClimb(b.space, weights, b.wl.size, seed)
		if err != nil {
			return nil, err
		}
		return sr.Evaluated, nil
	case "evolve":
		return runner.Evolve(b.space, objectives, core.EvolveOptions{
			Population: b.wl.population, Budget: b.wl.size, Seed: seed,
		})
	}
	return nil, fmt.Errorf("unknown workload kind %q", b.wl.kind)
}

// frontHV is the accesses x footprint hypervolume of the front, as a
// fraction of the workload's fixed reference box.
func (b *bench) frontHV(points []pareto.Point) float64 {
	box := b.wl.hvBox
	for _, p := range points {
		b.extent[0] = math.Min(b.extent[0], p.Values[0])
		b.extent[1] = math.Max(b.extent[1], p.Values[0])
		b.extent[2] = math.Min(b.extent[2], p.Values[1])
		b.extent[3] = math.Max(b.extent[3], p.Values[1])
	}
	norm := make([]pareto.Point, 0, len(points))
	for _, p := range points {
		x := clamp01((p.Values[0] - box[0]) / (box[1] - box[0]))
		y := clamp01((p.Values[1] - box[2]) / (box[3] - box[2]))
		norm = append(norm, pareto.Point{Tag: p.Tag, Values: []float64{x, y}})
	}
	return pareto.Hypervolume2D(norm, [2]float64{1, 1})
}

// verifyFull replays configuration idx afresh and reports whether the
// result matches m bit for bit.
func (b *bench) verifyFull(ct *trace.Compiled, idx int, m *profile.Metrics) (bool, error) {
	cfg, _, err := b.space.Config(idx)
	if err != nil {
		return false, err
	}
	fresh, err := profile.NewReplayer().Run(ct, cfg, b.hier, profile.Options{})
	if err != nil {
		return false, err
	}
	return metricsHash(fresh) == metricsHash(m), nil
}

// repSeed derives the k-th seed from a run seed (splitmix64).
func repSeed(seed uint64, k int) uint64 {
	z := seed + uint64(k+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func clamp01(v float64) float64 { return math.Max(0, math.Min(1, v)) }

func median(xs []float64) float64 { return percentile(xs, 50) }

// percentile is the nearest-rank p-th percentile (the midpoint of the
// two middle values for an even-sized median; 0 for no samples).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if p == 50 && len(s)%2 == 0 {
		return (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// cpuTime is the process's user + system CPU time (getrusage).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func readMetric(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// heapAllocs is the cumulative heap allocation in bytes.
func heapAllocs() uint64 { return readMetric("/gc/heap/allocs:bytes") }

// heapSampler tracks the maximum of /gc/heap/live:bytes over a run.
type heapSampler struct {
	stopc chan struct{}
	done  chan uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopc: make(chan struct{}), done: make(chan uint64)}
	go func() {
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		var peak uint64
		for {
			if v := readMetric("/gc/heap/live:bytes"); v > peak {
				peak = v
			}
			select {
			case <-h.stopc:
				h.done <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

func (h *heapSampler) stop() uint64 {
	close(h.stopc)
	return <-h.done
}
