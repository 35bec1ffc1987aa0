package telemetry

import (
	"strings"
	"sync"
	"testing"
	"time"

	"dmexplore/internal/telemetry/span"
)

func TestSnapshotMergesShards(t *testing.T) {
	col := NewCollector(4)
	for w := 0; w < 4; w++ {
		sh, ring := col.Shard(w), col.Spans().Ring(w)
		ring.Record(span.StageFullSim, 0, 2*time.Millisecond, 100)
		ring.Record(span.StageCacheProbe, 0, time.Microsecond, 0)
		if w%2 == 0 {
			ring.Record(span.StageCacheProbe, 0, time.Microsecond, 1)
		}
		sh.AddBusy(3 * time.Millisecond)
	}
	col.Shard(1).MemoHit()
	col.Shard(2).ConfigError()
	col.Shard(3).SimError()
	col.AddCacheStale(5)
	col.start = col.start.Add(-time.Second) // pretend a second elapsed

	s := col.Snapshot()
	if s.Workers != 4 || s.Sims != 4 || s.Events != 400 {
		t.Fatalf("merged counts: %+v", s)
	}
	if s.CacheHits != 2 || s.CacheMisses != 4 || s.MemoHits != 1 || s.CacheStale != 5 {
		t.Fatalf("cache counts: %+v", s)
	}
	if s.ErrorsConfig != 1 || s.ErrorsSim != 1 {
		t.Fatalf("error counts: %+v", s)
	}
	if got := s.CacheHitRate(); got != 2.0/6.0 {
		t.Fatalf("hit rate %v", got)
	}
	if s.Done() != 4+2+1 {
		t.Fatalf("done %d", s.Done())
	}
	if s.SimSecTotal < 0.008-1e-9 || s.SimSecTotal > 0.009 {
		t.Fatalf("sim seconds %v", s.SimSecTotal)
	}
	// 2ms lands in a log2 bucket whose upper bound is < 4ms; every
	// quantile of four identical observations answers that bucket.
	if s.SimP50Ms <= 0 || s.SimP50Ms > 4 || s.SimP50Ms != s.SimP99Ms {
		t.Fatalf("latency quantiles: p50=%v p99=%v", s.SimP50Ms, s.SimP99Ms)
	}
	if s.Utilization <= 0 || s.Utilization > 1 {
		t.Fatalf("utilization %v", s.Utilization)
	}
	if str := s.String(); !strings.Contains(str, "4 sims") || !strings.Contains(str, "cache 33% hit") {
		t.Fatalf("summary line: %q", str)
	}
}

// TestSnapshotUnderConcurrentWorkers hammers every shard from its own
// goroutine while a reader snapshots continuously — the -race guard for
// the lock-free recording path.
func TestSnapshotUnderConcurrentWorkers(t *testing.T) {
	const workers, perWorker = 8, 2000
	col := NewCollector(workers)
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() { // concurrent reader
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
				_ = col.Snapshot()
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sh, ring := col.Shard(w), col.Spans().Ring(w)
			for i := 0; i < perWorker; i++ {
				ring.Record(span.StageFullSim, 0, time.Duration(i%37)*time.Microsecond, 10)
				hit := int64(0)
				if i%3 == 0 {
					hit = 1
				}
				ring.Record(span.StageCacheProbe, 0, time.Microsecond, hit)
				sh.AddBusy(time.Microsecond)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-readerDone

	s := col.Snapshot()
	if s.Sims != workers*perWorker {
		t.Fatalf("sims %d, want %d", s.Sims, workers*perWorker)
	}
	if s.Events != workers*perWorker*10 {
		t.Fatalf("events %d", s.Events)
	}
	if s.CacheHits+s.CacheMisses != workers*perWorker {
		t.Fatalf("cache lookups %d", s.CacheHits+s.CacheMisses)
	}
	var total uint64
	for _, c := range s.LatencyBuckets {
		total += c
	}
	if total != workers*perWorker {
		t.Fatalf("histogram mass %d", total)
	}
}

func TestShardWrapsWhenOversubscribed(t *testing.T) {
	col := NewCollector(2)
	if col.Shard(0) != col.Shard(2) || col.Shard(1) != col.Shard(3) {
		t.Fatal("shard index does not wrap")
	}
	if col.Shard(-1) == nil {
		_ = col.Shard(-1) // negative indices must not panic
	}
	if NewCollector(0).Workers() != 1 {
		t.Fatal("zero workers did not default to one shard")
	}
}
