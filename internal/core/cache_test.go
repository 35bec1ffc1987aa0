package core

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"dmexplore/internal/memhier"
	"dmexplore/internal/profile"
)

func TestResultsCacheRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.jsonl")
	c, err := OpenResultsCache(path)
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 0 {
		t.Fatal("fresh cache not empty")
	}
	m := &profile.Metrics{Accesses: 42, FootprintBytes: 1000, EnergyNJ: 1.5, Cycles: 99}
	c.Put("k1", m)
	c.Put("k2", &profile.Metrics{Accesses: 7})
	if err := c.Save(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenResultsCache(path)
	if err != nil {
		t.Fatal(err)
	}
	if re.Len() != 2 {
		t.Fatalf("reloaded %d entries", re.Len())
	}
	got, ok := re.Get("k1")
	if !ok || got.Accesses != 42 || got.EnergyNJ != 1.5 {
		t.Fatalf("entry k1: %+v %v", got, ok)
	}
	if _, ok := re.Get("nope"); ok {
		t.Fatal("phantom entry")
	}
}

func TestResultsCacheSaveNoopWhenClean(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.jsonl")
	c, _ := OpenResultsCache(path)
	if err := c.Save(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("clean save created a file")
	}
}

// TestResultsCacheSaveRepairsFailedAppend: entries whose append failed
// are not lost; Save's compaction writes them once the disk is usable.
func TestResultsCacheSaveRepairsFailedAppend(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "later")
	path := filepath.Join(dir, "cache.jsonl")
	c, err := OpenResultsCache(path)
	if err != nil {
		t.Fatal(err)
	}
	c.Put("k1", &profile.Metrics{Accesses: 1}) // the directory is missing: append fails
	c.Put("k2", &profile.Metrics{Accesses: 2}) // sticky: not written either
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := c.Save(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenResultsCache(path)
	if err != nil {
		t.Fatal(err)
	}
	if re.Len() != 2 {
		t.Fatalf("reloaded %d entries, want 2", re.Len())
	}
}

func TestResultsCacheRejectsCorrupt(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.jsonl")
	os.WriteFile(path, []byte("not json\n"), 0o644)
	if _, err := OpenResultsCache(path); err == nil {
		t.Fatal("corrupt cache accepted")
	}
	os.WriteFile(path, []byte(`{"key":"","metrics":null}`+"\n"), 0o644)
	if _, err := OpenResultsCache(path); err == nil {
		t.Fatal("incomplete entry accepted")
	}
}

func TestCacheKeyDiscriminates(t *testing.T) {
	tr := tinyTrace(t)
	h := memhier.EmbeddedSoC()
	k1 := CacheKey("cfgA", tr, h)
	k2 := CacheKey("cfgB", tr, h)
	if k1 == k2 {
		t.Fatal("config not in key")
	}
	if CacheKey("cfgA", tr, memhier.FlatDRAM()) == k1 {
		t.Fatal("hierarchy not in key")
	}
}

func TestRunnerUsesCache(t *testing.T) {
	tr := tinyTrace(t)
	path := filepath.Join(t.TempDir(), "cache.jsonl")
	cache, err := OpenResultsCache(path)
	if err != nil {
		t.Fatal(err)
	}
	space := tinySpace()
	r := &Runner{Hierarchy: memhier.EmbeddedSoC(), Trace: tr, Cache: cache}
	first, err := r.Explore(space)
	if err != nil {
		t.Fatal(err)
	}
	if cache.Len() != space.Size() {
		t.Fatalf("cache has %d entries after sweep of %d", cache.Len(), space.Size())
	}
	if err := cache.Save(); err != nil {
		t.Fatal(err)
	}

	// Re-open and re-run: results must be identical and come from cache
	// (verified by poisoning one entry and seeing it surface).
	cache2, err := OpenResultsCache(path)
	if err != nil {
		t.Fatal(err)
	}
	cfg, _, _ := space.Config(0)
	key := CacheKey(cfg.ID(), tr, r.Hierarchy)
	poisoned := &profile.Metrics{Accesses: 123456789}
	cache2.Put(key, poisoned)
	r2 := &Runner{Hierarchy: memhier.EmbeddedSoC(), Trace: tr, Cache: cache2}
	second, err := r2.Explore(space)
	if err != nil {
		t.Fatal(err)
	}
	if second[0].Metrics.Accesses != 123456789 {
		t.Fatal("cache not consulted")
	}
	for i := 1; i < len(first); i++ {
		if first[i].Metrics.Accesses != second[i].Metrics.Accesses {
			t.Fatalf("config %d differs across cached runs", i)
		}
	}
}

func TestResultsCacheStats(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.jsonl")
	c, err := OpenResultsCache(path)
	if err != nil {
		t.Fatal(err)
	}
	m1 := &profile.Metrics{Accesses: 1}
	c.Put("k1", m1)
	if _, ok := c.Get("k1"); !ok {
		t.Fatal("k1 missing")
	}
	if _, ok := c.Get("k2"); ok {
		t.Fatal("phantom k2")
	}
	c.Put("k1", m1)                            // same metrics pointer: not stale
	c.Put("k1", &profile.Metrics{Accesses: 2}) // superseded: stale
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Stale != 1 || s.Loaded != 0 {
		t.Fatalf("stats %+v", s)
	}
	if err := c.Save(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenResultsCache(path)
	if err != nil {
		t.Fatal(err)
	}
	if s := re.Stats(); s.Loaded != 1 || s.Stale != 0 || s.Hits != 0 || s.Misses != 0 {
		t.Fatalf("reloaded stats %+v", s)
	}
}

// TestResultsCacheStaleVersionDropped pins the version gate: entries
// recorded under a different schema version are dropped at load, counted
// as stale, and purged from disk by the next Save. Version-less entries
// (seed-era caches) stay valid.
func TestResultsCacheStaleVersionDropped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.jsonl")
	lines := `{"v":99,"key":"old","metrics":{"Accesses":1}}
{"key":"legacy","metrics":{"Accesses":2}}
{"v":1,"key":"current","metrics":{"Accesses":3}}
`
	if err := os.WriteFile(path, []byte(lines), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := OpenResultsCache(path)
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 2 {
		t.Fatalf("kept %d entries, want 2", c.Len())
	}
	if s := c.Stats(); s.Stale != 1 || s.Loaded != 2 {
		t.Fatalf("stats %+v", s)
	}
	if _, ok := c.Get("old"); ok {
		t.Fatal("stale entry served")
	}
	if _, ok := c.Get("legacy"); !ok {
		t.Fatal("legacy version-less entry dropped")
	}
	// Dropping stale entries marks the cache dirty: Save rewrites the
	// file without them, versioning every surviving entry.
	if err := c.Save(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenResultsCache(path)
	if err != nil {
		t.Fatal(err)
	}
	if re.Len() != 2 {
		t.Fatalf("rewritten cache has %d entries", re.Len())
	}
	if s := re.Stats(); s.Stale != 0 {
		t.Fatalf("stale entry survived the rewrite: %+v", s)
	}
}

// TestResultsCacheConcurrentAccounting hammers Get/Put from many
// goroutines — the -race guard for the accounting counters.
func TestResultsCacheConcurrentAccounting(t *testing.T) {
	c, err := OpenResultsCache(filepath.Join(t.TempDir(), "cache.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	const workers, each = 8, 300
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			m := &profile.Metrics{Accesses: uint64(w)}
			for i := 0; i < each; i++ {
				key := fmt.Sprintf("w%d-%d", w, i)
				c.Get(key) // always a miss: keys are per-goroutine unique
				c.Put(key, m)
				c.Get(key) // always a hit
				_ = c.Stats()
			}
		}(w)
	}
	wg.Wait()
	s := c.Stats()
	if s.Hits != workers*each || s.Misses != workers*each || s.Stale != 0 {
		t.Fatalf("stats %+v", s)
	}
	if c.Len() != workers*each {
		t.Fatalf("entries %d", c.Len())
	}
}
