package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"dmexplore/internal/pareto"
	"dmexplore/internal/profile"
	"dmexplore/internal/serve"
	"dmexplore/internal/stats"
	"dmexplore/internal/telemetry"
	"dmexplore/internal/trace"
	wlgen "dmexplore/internal/workload"
)

// Island job shape: two islands on two single-slot workers, migrating
// every two generations, each evaluation charged a modelled 5 ms backend,
// on a 5 %-scale trace and the narrow space (the workload's space must
// be core.EasyportSpace to match), so simulation stays a minor share.
const (
	islandSpace    = "narrow"
	islandScale    = 5
	islandCount    = 2
	migrateEvery   = 2
	migrateK       = 4
	evalLatencyMS  = 5
	workerPoll     = 5 * time.Millisecond
	followDeadline = 120 * time.Second
)

func (b *bench) islandSpec(in *input) serve.JobSpec {
	scale := max(1, islandScale*b.o.scale/100)
	return serve.JobSpec{
		Workload: b.wl.trace, WorkloadSeed: in.seed, Scale: scale,
		Space: islandSpace, Hierarchy: "soc", Objectives: objectives,
		Strategy: "nsga2", Islands: islandCount, Population: b.wl.population,
		Budget: b.wl.size, Seed: searchSeed,
		MigrationEvery: migrateEvery, MigrationK: migrateK,
		EvalLatencyMS: evalLatencyMS,
	}
}

// islandJob runs one island-model job on one input through a
// checkpointing coordinator behind httptest with two in-process workers.
func (b *bench) islandJob(in *input, traced bool) (*traceRun, error) {
	r := &traceRun{in: in, serve: &serveStats{traced: traced, granted: map[string]bool{}}}
	stateDir := filepath.Join(b.o.out, "islands-state")
	if err := os.RemoveAll(stateDir); err != nil {
		return nil, err
	}

	setupStart := time.Now()
	coord, err := serve.NewCoordinator(serve.Options{StateDir: stateDir})
	if err != nil {
		return nil, err
	}
	defer coord.Close()
	srv := httptest.NewServer(r.serve.wrap(coord.Handler()))
	defer srv.Close()
	client := &serve.Client{Base: srv.URL}

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	defer func() {
		cancel()
		wg.Wait()
	}()
	for i := 0; i < islandCount; i++ {
		w := &serve.Worker{
			Coordinator: srv.URL, ID: fmt.Sprintf("bench-w%d", i+1),
			Slots: 1, SessionWorkers: 1, Poll: workerPoll,
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = w.Run(ctx) // returns ctx's error once the job is done and ctx is cancelled
		}()
	}

	alloc0, cpu0 := heapAllocs(), cpuTime()
	start := time.Now()
	id, err := client.Submit(b.islandSpec(in))
	if err != nil {
		return nil, err
	}
	followCtx, followCancel := context.WithTimeout(context.Background(), followDeadline)
	defer followCancel()
	st, err := client.FollowJournal(followCtx, id, 0, func(rec telemetry.Record) {
		if len(r.records) == 0 {
			r.setup = time.Since(setupStart)
		}
		r.records = append(r.records, rec)
	})
	r.wall = time.Since(start)
	r.cpu = cpuTime() - cpu0
	r.alloc = heapAllocs() - alloc0
	if err != nil {
		return nil, err
	}
	if st.State != "done" {
		return nil, fmt.Errorf("island job ended %s: %s", st.State, st.Error)
	}
	cancel()
	wg.Wait()
	srv.Close()
	if err := coord.Close(); err != nil {
		return nil, err
	}

	r.serve.checkpointBytes = dirBytes(stateDir)
	r.serve.front = st.Front
	var front []int
	for _, p := range st.Front {
		front = append(front, p.Index)
	}
	r.hv = b.frontHV(frontPoints(st.Front))
	r.fp = islandsFingerprint(r.records, front)
	return r, nil
}

// checkIslands checks one island job of repetition 0: every front point
// is a journaled evaluation with the same values, and a seeded sample of
// journal records matches a fresh full replay of a locally generated
// copy of the job's trace.
func (b *bench) checkIslands(r *traceRun) error {
	byIndex := map[int]telemetry.Record{}
	for _, rec := range r.records {
		byIndex[rec.Index] = rec
	}
	if len(r.serve.front) == 0 {
		b.mismatch("island job returned an empty front")
	}
	for _, p := range r.serve.front {
		rec, ok := byIndex[p.Index]
		if !ok || len(p.Values) != 2 || p.Values[0] != float64(rec.Accesses) || p.Values[1] != float64(rec.FootprintBytes) {
			b.mismatch("trace seed %d, front point %d does not match its journal record", r.in.seed, p.Index)
		}
	}

	spec := b.islandSpec(r.in)
	gen, err := wlgen.New(spec.Workload, spec.WorkloadSeed, spec.Scale)
	if err != nil {
		return err
	}
	tr, err := gen.Generate()
	if err != nil {
		return err
	}
	r.in.events = tr.Len()
	ct, err := trace.Compile(tr)
	if err != nil {
		return err
	}
	rng := stats.NewRNG(repSeed(r.in.seed, -1))
	for i, j := range rng.Perm(len(r.records)) {
		if i == verifySamples {
			break
		}
		rec := r.records[j]
		cfg, _, err := b.space.Config(rec.Index)
		if err != nil {
			return err
		}
		m, err := profile.NewReplayer().Run(ct, cfg, b.hier, profile.Options{})
		if err != nil {
			return err
		}
		if m.Accesses != rec.Accesses || m.FootprintBytes != rec.FootprintBytes || m.Cycles != rec.Cycles ||
			m.Failures != rec.Failures || math.Float64bits(m.EnergyNJ) != math.Float64bits(rec.EnergyNJ) {
			b.mismatch("trace seed %d, island record %d differs from a fresh full replay", r.in.seed, rec.Index)
		}
	}
	return nil
}

// frontPoints converts a serve front to Pareto points.
func frontPoints(front []serve.FrontPoint) []pareto.Point {
	points := make([]pareto.Point, 0, len(front))
	for _, p := range front {
		points = append(points, pareto.Point{Values: p.Values})
	}
	return points
}

// serveStats counts the coordinator's HTTP traffic, by route. Every run
// counts non-2xx answers and re-leased shards (failures); traced runs
// also time the lease and migrate round-trips.
type serveStats struct {
	traced bool

	mu           sync.Mutex
	requests     int
	non2xx       int
	leases       int
	leaseEmpty   int
	leaseMS      []float64
	migrateMS    []float64
	heartbeats   int
	resultsLines int
	granted      map[string]bool // job/shard already leased once
	released     int

	checkpointBytes int64
	front           []serve.FrontPoint
}

func (s *serveStats) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		path := req.URL.Path
		rw := &statusWriter{ResponseWriter: w, status: http.StatusOK, capture: strings.HasSuffix(path, "/lease")}
		var lines *lineCounter
		if strings.HasSuffix(path, "/results") {
			lines = &lineCounter{ReadCloser: req.Body}
			req.Body = lines
		}
		start := time.Now()
		h.ServeHTTP(rw, req)
		ms := float64(time.Since(start).Nanoseconds()) / 1e6

		s.mu.Lock()
		defer s.mu.Unlock()
		s.requests++
		if rw.status/100 != 2 {
			s.non2xx++
		}
		switch {
		case rw.capture:
			s.leases++
			if s.traced {
				s.leaseMS = append(s.leaseMS, ms)
			}
			var resp serve.LeaseResponse
			if json.Unmarshal(rw.body.Bytes(), &resp) == nil {
				if len(resp.Grants) == 0 {
					s.leaseEmpty++
				}
				for _, g := range resp.Grants {
					key := fmt.Sprintf("%s/%d", g.JobID, g.Shard.ID)
					if s.granted[key] {
						s.released++
					}
					s.granted[key] = true
				}
			}
		case strings.HasSuffix(path, "/migrate"):
			if s.traced {
				s.migrateMS = append(s.migrateMS, ms)
			}
		case strings.HasSuffix(path, "/heartbeat"):
			s.heartbeats++
		case lines != nil:
			s.resultsLines += lines.lines
		}
	})
}

// statusWriter records the response status and, when capture is set,
// the body. It forwards Flush so streamed journal answers still stream.
type statusWriter struct {
	http.ResponseWriter
	status  int
	capture bool
	body    bytes.Buffer
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.capture {
		w.body.Write(p)
	}
	return w.ResponseWriter.Write(p)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// lineCounter counts newline-terminated lines read from a request body.
type lineCounter struct {
	io.ReadCloser
	lines int
}

func (l *lineCounter) Read(p []byte) (int, error) {
	n, err := l.ReadCloser.Read(p)
	l.lines += bytes.Count(p[:n], []byte{'\n'})
	return n, err
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) int64 {
	var total int64
	// An unreadable entry only leaves its bytes out of a reported size.
	_ = filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && fi.Mode().IsRegular() {
			total += fi.Size()
		}
		return nil
	})
	return total
}

// serveMetrics reports the serve layer's per-route figures, pooled over
// every island job of the repetitions; counts are per job.
func serveMetrics(put func(string, float64, string), reps []*rep) {
	var lease, migrate, ckpt []float64
	var leases, empty, heartbeats, lines, non2xx, jobs int
	for _, r := range reps {
		for _, tr := range r.runs {
			s := tr.serve
			if s == nil {
				continue
			}
			jobs++
			lease = append(lease, s.leaseMS...)
			migrate = append(migrate, s.migrateMS...)
			leases += s.leases
			empty += s.leaseEmpty
			heartbeats += s.heartbeats
			lines += s.resultsLines
			non2xx += s.non2xx
			ckpt = append(ckpt, float64(s.checkpointBytes))
		}
	}
	n := math.Max(1, float64(jobs))
	put("serve.lease_p50_ms", percentile(lease, 50), "ms")
	put("serve.lease_tail_ms", percentile(lease, tailFor(len(lease))), "ms")
	put("serve.lease_empty_frac", ratio(float64(empty), float64(leases)), "fraction")
	put("serve.results_lines", float64(lines)/n, "count")
	put("serve.migrate_wait_p50_ms", percentile(migrate, 50), "ms")
	put("serve.migrate_wait_s", sum(migrate)/1e3/n, "s")
	put("serve.heartbeats", float64(heartbeats)/n, "count")
	put("serve.checkpoint_bytes", median(ckpt), "bytes")
	put("serve.http_non2xx", float64(non2xx)/n, "count")
}
