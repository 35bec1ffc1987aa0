package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"dmexplore/internal/memhier"
	"dmexplore/internal/profile"
	"dmexplore/internal/recordlog"
	"dmexplore/internal/trace"
)

// ResultsCache persists profiling results across tool invocations so an
// interrupted or repeated exploration only simulates configurations it
// has not seen before. Entries are keyed by the (configuration ID,
// trace, hierarchy) triple — any change to the workload or platform
// invalidates naturally because the key changes.
//
// On disk the cache is a record log (see internal/recordlog): Put
// appends at once, so an interrupted sweep keeps every result it
// finished, and Save compacts.
type ResultsCache struct {
	log *recordlog.Log

	mu      sync.Mutex
	entries map[string]*profile.Metrics
	dirty   bool // the log holds stale or superseded lines

	// Accounting, atomically updated so Stats can be read while an
	// exploration's workers are hitting the cache concurrently.
	hits   atomic.Uint64 // Get found the key
	misses atomic.Uint64 // Get found nothing
	stale  atomic.Uint64 // entries dropped at load (version skew) or superseded by Put
	loaded uint64        // entries read from disk at open
}

// cacheVersion is the on-disk schema version. Entries recorded under a
// different version are dropped at load and counted as stale instead of
// poisoning a sweep with results whose semantics have drifted. Entries
// with no version field (seed-era caches) predate the versioning and are
// accepted as current.
const cacheVersion = 1

// cacheEntry is the on-disk record.
type cacheEntry struct {
	Version int              `json:"v,omitempty"`
	Key     string           `json:"key"`
	Metrics *profile.Metrics `json:"metrics"`
}

// OpenResultsCache loads the cache at path, creating an empty one when
// the file does not exist yet.
func OpenResultsCache(path string) (*ResultsCache, error) {
	c := &ResultsCache{entries: make(map[string]*profile.Metrics)}
	log, err := recordlog.Open(path, func(e cacheEntry) error {
		if e.Key == "" || e.Metrics == nil {
			return errors.New("incomplete entry")
		}
		if e.Version != 0 && e.Version != cacheVersion {
			c.stale.Add(1)
			c.dirty = true // dropping stale entries rewrites the file on Save
			return nil
		}
		if _, seen := c.entries[e.Key]; seen {
			c.dirty = true // a later line superseded this key
		} else {
			c.loaded++
		}
		c.entries[e.Key] = e.Metrics
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("core: cache %w", err)
	}
	c.log = log
	return c, nil
}

// CacheKey builds the lookup key for one profiling run.
func CacheKey(configID string, tr *trace.Trace, h *memhier.Hierarchy) string {
	return fmt.Sprintf("%s\x1f%s(%d)\x1f%s", configID, tr.Name, tr.Len(), h.String())
}

// CompiledCacheKey builds the same key from a compiled trace: compilation
// preserves the event count and name, so entries cached under either form
// of the trace are interchangeable.
func CompiledCacheKey(configID string, ct *trace.Compiled, h *memhier.Hierarchy) string {
	return fmt.Sprintf("%s\x1f%s(%d)\x1f%s", configID, ct.Name, ct.Len(), h.String())
}

// Get returns the cached metrics for key, if present.
func (c *ResultsCache) Get(key string) (*profile.Metrics, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	m, ok := c.entries[key]
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return m, ok
}

// Put stores metrics under key and appends the entry to the log.
// Overwriting an existing entry counts the old one as stale (it was
// superseded by a recomputation). The append runs outside the lock, so
// concurrent Gets never wait on encoding or I/O; Save repairs a failed
// append.
func (c *ResultsCache) Put(key string, m *profile.Metrics) {
	c.mu.Lock()
	old, ok := c.entries[key]
	if old == m {
		c.mu.Unlock()
		return
	}
	if ok {
		c.stale.Add(1)
		c.dirty = true
	}
	c.entries[key] = m
	c.mu.Unlock()
	c.log.Append(cacheEntry{Version: cacheVersion, Key: key, Metrics: m})
}

// Len returns the number of cached entries.
func (c *ResultsCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// CacheStats is the cache's own accounting: lookup outcomes since open,
// plus entries loaded from disk and entries that went stale.
type CacheStats struct {
	Hits   uint64 // Get found the key
	Misses uint64 // Get found nothing
	Stale  uint64 // dropped at load or superseded by Put
	Loaded uint64 // entries read from disk at open
}

// Stats returns a snapshot of the accounting. Safe to call while an
// exploration is using the cache.
func (c *ResultsCache) Stats() CacheStats {
	return CacheStats{
		Hits:   c.hits.Load(),
		Misses: c.misses.Load(),
		Stale:  c.stale.Load(),
		Loaded: c.loaded,
	}
}

// Save releases the log's file handle and compacts the log when it
// holds stale or superseded lines or an append failed. It returns the
// compaction's error joined with any append error it did not repair.
func (c *ResultsCache) Save() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.log.Close() == nil && !c.dirty {
		return nil
	}
	recs := make([]any, 0, len(c.entries))
	for key, m := range c.entries {
		recs = append(recs, cacheEntry{Version: cacheVersion, Key: key, Metrics: m})
	}
	err := c.log.Rewrite(recs)
	c.dirty = err != nil
	return errors.Join(err, c.log.Close())
}
