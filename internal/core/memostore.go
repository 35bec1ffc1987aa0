package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"dmexplore/internal/profile"
	"dmexplore/internal/recordlog"
)

// PoolMemoStore persists the session pool-run memo across tool
// invocations, next to the results cache. The memo key — FNV-1a content
// hash of the recorded fallback op sequence plus the canonical
// general-pool parameter vector (see poolRunKey) — is process-
// independent, so a run recorded by yesterday's sweep composes today's
// crossover offspring with zero simulation. Reuse stays collision-safe:
// the session verifies the full op sequence against the probing
// partition (PoolRun.MatchesOps) before composing, exactly as it does
// for in-session memo hits.
//
// On disk the store is a record log (see internal/recordlog) of one
// PoolRunState per line, appended by Put, schema-versioned like
// ResultsCache: entries recorded under a different version are dropped
// at load and counted stale. The store honors the same byte budget as
// the in-session memo (-pool-memo-mb): oldest entries beyond the budget
// are dropped at load and on Put, and Save compacts them away. Between
// compactions the file itself can grow past the budget.
type PoolMemoStore struct {
	log    *recordlog.Log
	budget int64 // retained-bytes bound; 0 = unbounded

	mu      sync.Mutex
	entries map[string]*profile.PoolRun
	order   []string // insertion order, oldest first — the eviction order
	bytes   int64
	dirty   bool // the log holds stale, duplicate or evicted lines

	hits    atomic.Uint64
	misses  atomic.Uint64
	stale   atomic.Uint64 // version skew at load
	dropped atomic.Uint64 // budget evictions (load or Put)
	loaded  uint64
}

// poolMemoVersion is the on-disk schema version of the persistent
// pool-run memo. Any change to PoolRunState or to the key derivation
// must bump it so stale entries are purged instead of composing wrong
// metrics.
const poolMemoVersion = 1

// poolMemoEntry is the on-disk record.
type poolMemoEntry struct {
	Version int                   `json:"v"`
	Key     string                `json:"key"`
	Run     *profile.PoolRunState `json:"run"`
}

// OpenPoolMemoStore loads the persistent pool-run memo at path, creating
// an empty store when the file does not exist yet. budgetBytes bounds
// the retained entries (oldest dropped first); <= 0 is unbounded.
func OpenPoolMemoStore(path string, budgetBytes int64) (*PoolMemoStore, error) {
	if budgetBytes < 0 {
		budgetBytes = 0
	}
	st := &PoolMemoStore{budget: budgetBytes, entries: make(map[string]*profile.PoolRun)}
	log, err := recordlog.Open(path, func(e poolMemoEntry) error {
		if e.Key == "" || e.Run == nil {
			return errors.New("incomplete entry")
		}
		var run *profile.PoolRun
		if e.Version == poolMemoVersion {
			run = profile.PoolRunFromState(*e.Run)
		}
		if run == nil {
			// Version skew, or a shape-invalid (hand-edited) state: drop it.
			st.stale.Add(1)
			st.dirty = true // dropping stale entries rewrites the file on Save
			return nil
		}
		if _, ok := st.entries[e.Key]; ok {
			st.dirty = true
			return nil
		}
		st.entries[e.Key] = run
		st.order = append(st.order, e.Key)
		st.bytes += poolMemoEntryBytes(run)
		st.loaded++
		st.enforceBudget() // per record, so loading never holds more than the budget
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("core: pool memo %w", err)
	}
	st.log = log
	return st, nil
}

// poolMemoEntryBytes is the budget charge for one stored run: the run's
// own footprint plus its ops slice (which, unlike the in-session memo,
// is owned by the store, not shared with a live partition) and the map
// and order-list slots.
func poolMemoEntryBytes(run *profile.PoolRun) int64 {
	return run.MemBytes() + int64(run.Ops())*8 + 128
}

// enforceBudget drops oldest entries until the store fits. Callers hold mu.
func (st *PoolMemoStore) enforceBudget() {
	if st.budget <= 0 {
		return
	}
	for st.bytes > st.budget && len(st.order) > 0 {
		key := st.order[0]
		st.order = st.order[1:]
		st.bytes -= poolMemoEntryBytes(st.entries[key])
		delete(st.entries, key)
		st.dropped.Add(1)
		st.dirty = true
	}
}

// Get returns the stored run for key, if present. The caller must verify
// the run against its partition (MatchesOps) before composing with it.
func (st *PoolMemoStore) Get(key string) (*profile.PoolRun, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	run, ok := st.entries[key]
	if ok {
		st.hits.Add(1)
	} else {
		st.misses.Add(1)
	}
	return run, ok
}

// Put stores a freshly built run under key and appends it to the log.
// First write wins: runs are content-keyed, so a duplicate Put carries
// an identical run. The run is encoded and appended outside the lock,
// so concurrent Gets never wait on it; Save repairs a failed append.
func (st *PoolMemoStore) Put(key string, run *profile.PoolRun) {
	if run == nil {
		return
	}
	st.mu.Lock()
	if _, ok := st.entries[key]; ok {
		st.mu.Unlock()
		return
	}
	st.entries[key] = run
	st.order = append(st.order, key)
	st.bytes += poolMemoEntryBytes(run)
	st.enforceBudget()
	st.mu.Unlock()
	state := run.State()
	st.log.Append(poolMemoEntry{Version: poolMemoVersion, Key: key, Run: &state})
}

// Len returns the number of stored runs.
func (st *PoolMemoStore) Len() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.entries)
}

// PoolMemoStats is the store's accounting since open.
type PoolMemoStats struct {
	Hits    uint64 // Get found the key
	Misses  uint64 // Get found nothing
	Stale   uint64 // version-skewed or shape-invalid entries dropped at load
	Dropped uint64 // budget evictions
	Loaded  uint64 // entries read from disk at open
	Bytes   int64  // current retained-byte estimate
}

// Stats returns a snapshot of the accounting. Safe to call while an
// exploration is using the store.
func (st *PoolMemoStore) Stats() PoolMemoStats {
	st.mu.Lock()
	bytes := st.bytes
	st.mu.Unlock()
	return PoolMemoStats{
		Hits:    st.hits.Load(),
		Misses:  st.misses.Load(),
		Stale:   st.stale.Load(),
		Dropped: st.dropped.Load(),
		Loaded:  st.loaded,
		Bytes:   bytes,
	}
}

// Save releases the log's file handle and compacts the log when it
// holds stale, duplicate or evicted lines or an append failed, oldest
// entry first so a later load under the same budget keeps the same
// survivors. It returns the compaction's error joined with any append
// error it did not repair.
func (st *PoolMemoStore) Save() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.log.Close() == nil && !st.dirty {
		return nil
	}
	recs := make([]any, 0, len(st.order))
	for _, key := range st.order {
		state := st.entries[key].State()
		recs = append(recs, poolMemoEntry{Version: poolMemoVersion, Key: key, Run: &state})
	}
	err := st.log.Rewrite(recs)
	st.dirty = err != nil
	return errors.Join(err, st.log.Close())
}
