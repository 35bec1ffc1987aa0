package main

import (
	_ "embed"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"sort"

	"dmexplore/internal/core"
	"dmexplore/internal/profile"
	"dmexplore/internal/stats"
	"dmexplore/internal/telemetry"
)

// fingerprintFile holds the recorded output fingerprint of repetition 0
// per workload, seed, scale and trace count (traced runs use fewer
// traces). A run whose key is listed must reproduce it exactly.
//
//go:embed fingerprints.json
var fingerprintFile []byte

// fingerprints maps fingerprintKey to a hex FNV-64 fingerprint.
var fingerprints = mustFingerprints()

func mustFingerprints() map[string]string {
	m := map[string]string{}
	if err := json.Unmarshal(fingerprintFile, &m); err != nil {
		panic(fmt.Sprintf("fingerprints.json: %v", err))
	}
	return m
}

func fingerprintKey(wl string, seed uint64, scale, traces int) string {
	return fmt.Sprintf("%s/seed=%d/scale=%d/traces=%d", wl, seed, scale, traces)
}

// verifySamples is how many results per trace of repetition 0 every
// run re-checks against a fresh full replay.
const verifySamples = 4

// check validates the repetitions: every one must reproduce repetition
// 0's fingerprint (they do the same work), which must match the recorded
// one, and a seeded sample of repetition 0's results must match an
// independent evaluation.
func (b *bench) check(reps []*rep) error {
	end := b.spans.begin("check")
	defer end()
	r := reps[0]
	fp := r.fp()
	for _, other := range reps[1:] {
		if other.fp() != fp {
			b.mismatch("repetition %d fingerprint %016x differs from repetition 0's %016x", other.k, other.fp(), fp)
		}
	}
	key := fingerprintKey(b.wl.name, b.o.seed, b.o.scale, len(b.inputs))
	got := fmt.Sprintf("%016x", fp)
	if want, ok := fingerprints[key]; ok {
		if want != got {
			b.mismatch("fingerprint %s is %s, recorded %s", key, got, want)
		} else {
			b.note("fingerprint %s %s matches the recorded one", key, got)
		}
	} else {
		b.note("fingerprint %s %s (no recorded value for this seed)", key, got)
	}
	if _, failed, _ := r.evals(); failed > 0 {
		b.mismatch("%d evaluations failed", failed)
	}
	for _, tr := range r.runs {
		var err error
		if b.wl.kind == "islands" {
			err = b.checkIslands(tr)
		} else {
			err = b.checkSample(tr)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// checkSample re-evaluates a seeded sample of one input's results with a
// fresh full replay. Searches sample their fast-path (partial or
// composed) results; the sweep samples its cheaper configurations so
// the check stays bounded.
func (b *bench) checkSample(tr *traceRun) error {
	var pool []core.Result
	for _, res := range tr.results {
		if res.Err != nil || res.Metrics == nil {
			continue
		}
		if b.wl.incremental && !res.Incremental {
			continue
		}
		if !b.wl.incremental && res.Duration.Milliseconds() > 100 {
			continue
		}
		pool = append(pool, res)
	}
	rng := stats.NewRNG(repSeed(tr.in.seed, -1))
	for i, j := range rng.Perm(len(pool)) {
		if i == verifySamples {
			break
		}
		ok, err := b.verifyFull(tr.in.ct, pool[j].Index, pool[j].Metrics)
		if err != nil {
			return err
		}
		if !ok {
			b.mismatch("trace seed %d, configuration %d: result differs from a fresh full replay", tr.in.seed, pool[j].Index)
		}
	}
	return nil
}

// metricsHash is FNV-64 over every Metrics field, floats by their bits,
// except ConfigLabel. The label is descriptive, not simulated: when two
// axis combinations collapse to one canonical configuration (same
// ConfigID), the session's duplicate memo hands the second one the
// first one's metrics, label included, so the label depends on which of
// the two was evaluated first.
func metricsHash(m *profile.Metrics) uint64 {
	h := fnv.New64a()
	writeMetrics(h, m)
	return h.Sum64()
}

func writeMetrics(h hash.Hash64, m *profile.Metrics) {
	h.Write([]byte(m.ConfigID))
	h.Write([]byte{0})
	h.Write([]byte(m.Workload))
	h.Write([]byte{0})
	for _, l := range m.PerLayer {
		h.Write([]byte(l.Name))
		writeUints(h, l.Reads, l.Writes, uint64(l.PeakBytes))
	}
	writeUints(h, m.Accesses, uint64(m.FootprintBytes), math.Float64bits(m.EnergyNJ), m.Cycles,
		m.Mallocs, m.Frees, m.Failures, uint64(m.PeakRequestedBytes), uint64(len(m.Series)))
	for _, s := range m.Series {
		writeUints(h, uint64(s.Event), uint64(s.ReservedBytes), uint64(s.RequestedBytes))
	}
}

func writeUints(h hash.Hash64, vs ...uint64) {
	var buf [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
}

// sweepFingerprint is FNV-64 over (index, every Metrics field) of each
// result in order.
func sweepFingerprint(results []core.Result) uint64 {
	h := fnv.New64a()
	for _, res := range results {
		writeUints(h, uint64(res.Index))
		if res.Metrics != nil {
			writeMetrics(h, res.Metrics)
		}
	}
	return h.Sum64()
}

// searchFingerprint is FNV-64 over the walk (indices in evaluation
// order) followed by the sorted front and its members' metrics.
func searchFingerprint(results []core.Result, front []core.Result) uint64 {
	h := fnv.New64a()
	for _, res := range results {
		writeUints(h, uint64(res.Index))
	}
	writeUints(h, ^uint64(0))
	sorted := append([]core.Result(nil), front...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Index < sorted[j].Index })
	for _, res := range sorted {
		writeUints(h, uint64(res.Index))
		writeMetrics(h, res.Metrics)
	}
	return h.Sum64()
}

// islandsFingerprint is FNV-64 over each island's walk, islands in
// order, followed by the sorted front indices.
func islandsFingerprint(records []telemetry.Record, front []int) uint64 {
	walks := map[int][]int{}
	var islands []int
	for _, rec := range records {
		if _, ok := walks[rec.Island]; !ok {
			islands = append(islands, rec.Island)
		}
		walks[rec.Island] = append(walks[rec.Island], rec.Index)
	}
	sort.Ints(islands)
	h := fnv.New64a()
	for _, is := range islands {
		writeUints(h, uint64(is), uint64(len(walks[is])))
		for _, idx := range walks[is] {
			writeUints(h, uint64(idx))
		}
	}
	writeUints(h, ^uint64(0))
	sorted := append([]int(nil), front...)
	sort.Ints(sorted)
	for _, idx := range sorted {
		writeUints(h, uint64(idx))
	}
	return h.Sum64()
}
