package profile

import (
	"testing"

	"dmexplore/internal/alloc"
	"dmexplore/internal/memhier"
	"dmexplore/internal/telemetry"
	"dmexplore/internal/trace"
	"dmexplore/internal/workload"
)

// BenchmarkRun measures one-shot simulation throughput: trace events
// replayed per second through a full configuration, including the
// per-call trace compilation profile.Run performs.
func BenchmarkRun(b *testing.B) {
	p := workload.DefaultEasyportParams()
	p.Packets = 3000
	tr, err := p.Generate()
	if err != nil {
		b.Fatal(err)
	}
	h := memhier.EmbeddedSoC()
	for _, cfg := range []alloc.Config{
		alloc.KingsleyConfig(memhier.LayerDRAM),
		alloc.LeaConfig(memhier.LayerDRAM),
		alloc.SimpleFirstFitConfig(memhier.LayerDRAM),
	} {
		b.Run(cfg.Label, func(b *testing.B) {
			b.SetBytes(int64(tr.Len())) // "bytes" = events replayed
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Run(tr, cfg, h, Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchReplay measures steady-state exploration throughput: the trace is
// compiled once and a single Replayer is reused across configurations,
// exactly as core.Runner workers replay. The events/sec metric is the
// perf-trajectory number tracked in BENCH_replay.json.
func benchReplay(b *testing.B, gen workload.Generator) {
	b.Helper()
	tr, err := gen.Generate()
	if err != nil {
		b.Fatal(err)
	}
	ct, err := trace.Compile(tr)
	if err != nil {
		b.Fatal(err)
	}
	h := memhier.EmbeddedSoC()
	for _, cfg := range []alloc.Config{
		alloc.KingsleyConfig(memhier.LayerDRAM),
		alloc.LeaConfig(memhier.LayerDRAM),
		alloc.SimpleFirstFitConfig(memhier.LayerDRAM),
	} {
		b.Run(cfg.Label, func(b *testing.B) {
			rep := NewReplayer()
			if _, err := rep.Run(ct, cfg, h, Options{}); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(ct.Len())) // "bytes" = events replayed
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := rep.Run(ct, cfg, h, Options{}); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			eventsPerSec := float64(ct.Len()) * float64(b.N) / b.Elapsed().Seconds()
			b.ReportMetric(eventsPerSec, "events/sec")
		})
	}
}

// BenchmarkReplayEasyport tracks compiled-replay throughput on the
// Easyport workload (short-lived packet descriptors, high churn).
func BenchmarkReplayEasyport(b *testing.B) {
	p := workload.DefaultEasyportParams()
	p.Packets = 3000
	benchReplay(b, p)
}

// BenchmarkReplayVTC tracks compiled-replay throughput on the VTC
// workload (long-residency tile buffers).
func BenchmarkReplayVTC(b *testing.B) {
	p := workload.DefaultVTCParams()
	benchReplay(b, p)
}

// BenchmarkReplayTelemetry is the instrumented twin of
// BenchmarkReplayEasyport: the same steady-state replay loop with a
// collector's span ring attached, as core.Runner workers run it. Comparing
// its events/sec against the plain benchmark bounds the observation
// overhead (scripts/benchreplay.go computes the ratio; the budget is
// <2%). ReportAllocs doubles as the zero-allocation guard.
func BenchmarkReplayTelemetry(b *testing.B) {
	p := workload.DefaultEasyportParams()
	p.Packets = 3000
	tr, err := p.Generate()
	if err != nil {
		b.Fatal(err)
	}
	ct, err := trace.Compile(tr)
	if err != nil {
		b.Fatal(err)
	}
	h := memhier.EmbeddedSoC()
	col := telemetry.NewCollector(1)
	for _, cfg := range []alloc.Config{
		alloc.KingsleyConfig(memhier.LayerDRAM),
		alloc.LeaConfig(memhier.LayerDRAM),
		alloc.SimpleFirstFitConfig(memhier.LayerDRAM),
	} {
		b.Run(cfg.Label, func(b *testing.B) {
			rep := NewReplayer()
			rep.Spans = col.Spans().Ring(0)
			if _, err := rep.Run(ct, cfg, h, Options{}); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(ct.Len())) // "bytes" = events replayed
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := rep.Run(ct, cfg, h, Options{}); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			eventsPerSec := float64(ct.Len()) * float64(b.N) / b.Elapsed().Seconds()
			b.ReportMetric(eventsPerSec, "events/sec")
		})
	}
}
