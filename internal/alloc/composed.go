package alloc

import (
	"fmt"

	"dmexplore/internal/simheap"
)

// FallbackPool is the contract a pool must satisfy to serve as the
// composed allocator's general fallback. Both GeneralPool (segregated
// fit/storage) and BuddyPool implement it.
type FallbackPool interface {
	// Malloc allocates size payload bytes, returning the payload pointer
	// and the block bytes actually consumed.
	Malloc(size int64) (Ptr, int64, error)
	// Free releases the allocation at payload address addr, returning the
	// block bytes released.
	Free(addr uint64) (int64, error)
	// Owns reports whether addr is a live allocation of this pool.
	Owns(addr uint64) bool
	// LiveBlocks returns the number of live allocations.
	LiveBlocks() int
	// ArenaBytes returns the total reserved arena bytes.
	ArenaBytes() int64
}

// Composed is a complete custom allocator: an ordered set of dedicated
// fixed-size pools backed by a general fallback pool. Requests are routed
// to the first matching fixed pool; when a fixed pool cannot grow (its
// layer or budget is exhausted) the request falls back to the general
// pool, which models scratchpad-overflow behaviour on the target.
type Composed struct {
	name    string
	ctx     *simheap.Context
	fixed   []*FixedPool
	general FallbackPool

	// live tracks, per live payload address, the owning pool (so Free can
	// dispatch) and the requested size. On the target the dispatch is an
	// address-range check per pool, charged as compute cycles. A single
	// value-typed map with a packed uint64 key keeps the malloc/free hot
	// path on the fast integer map routines and free of Go heap
	// allocations in steady state.
	live map[uint64]liveAlloc

	stats Stats
}

// liveAlloc is the per-allocation bookkeeping entry.
type liveAlloc struct {
	requested int64
	pool      int32 // index into fixed; generalPool for the fallback
}

// generalPool marks an allocation served by the general fallback pool.
const generalPool int32 = -1

// liveKey packs a pointer into one map key: layer index in the top byte,
// address below. Layer address spaces are bump-allocated from zero and
// bounded by the run's total reservations, so addresses never approach
// 2^56 in simulation.
func liveKey(p Ptr) uint64 {
	return uint64(p.Layer)<<56 | p.Addr
}

// NewComposed assembles an allocator from already-constructed pools.
// general may not be nil: every configuration needs a fallback pool.
func NewComposed(name string, ctx *simheap.Context, fixed []*FixedPool, general FallbackPool) (*Composed, error) {
	if general == nil {
		return nil, fmt.Errorf("alloc: composed allocator needs a general pool")
	}
	return &Composed{
		name:    name,
		ctx:     ctx,
		fixed:   fixed,
		general: general,
		live:    make(map[uint64]liveAlloc),
	}, nil
}

// Name implements Allocator.
func (c *Composed) Name() string { return c.name }

// Fallback returns the general fallback pool.
func (c *Composed) Fallback() FallbackPool { return c.general }

// Malloc implements Allocator.
func (c *Composed) Malloc(size int64) (Ptr, error) {
	if err := checkSize(size); err != nil {
		return Ptr{}, err
	}
	for i, fp := range c.fixed {
		c.ctx.Compute(1) // routing check: size range compare
		if !fp.Matches(size) {
			continue
		}
		ptr, allocated, err := fp.Malloc(size)
		if err == nil {
			c.commit(ptr, int32(i), size, allocated)
			return ptr, nil
		}
		// Dedicated pool exhausted: fall back to the general pool.
		break
	}
	ptr, allocated, err := c.general.Malloc(size)
	if err != nil {
		c.stats.Failures++
		return Ptr{}, err
	}
	c.commit(ptr, generalPool, size, allocated)
	return ptr, nil
}

func (c *Composed) commit(ptr Ptr, pool int32, requested, allocated int64) {
	c.live[liveKey(ptr)] = liveAlloc{requested: requested, pool: pool}
	c.stats.Mallocs++
	c.stats.LiveBlocks++
	c.stats.RequestedLive += requested
	c.stats.AllocatedLive += allocated
}

// Free implements Allocator.
func (c *Composed) Free(p Ptr) error {
	la, ok := c.live[liveKey(p)]
	if !ok {
		return fmt.Errorf("%w: %+v", ErrBadFree, p)
	}
	c.ctx.Compute(uint64(len(c.fixed) + 1)) // address-range dispatch
	var (
		released int64
		err      error
	)
	if la.pool >= 0 {
		released, err = c.fixed[la.pool].Free(p.Addr)
	} else {
		released, err = c.general.Free(p.Addr)
	}
	if err != nil {
		return err
	}
	delete(c.live, liveKey(p))
	c.stats.Frees++
	c.stats.LiveBlocks--
	c.stats.RequestedLive -= la.requested
	c.stats.AllocatedLive -= released
	return nil
}

// Where implements Allocator.
func (c *Composed) Where(p Ptr) (Ptr, bool) {
	_, ok := c.live[liveKey(p)]
	return p, ok
}

// SizeOf implements Allocator.
func (c *Composed) SizeOf(p Ptr) (int64, bool) {
	la, ok := c.live[liveKey(p)]
	return la.requested, ok
}

// Stats implements Allocator.
func (c *Composed) Stats() Stats { return c.stats }

// CheckInvariants verifies the allocator's simulator-side consistency.
func (c *Composed) CheckInvariants() error {
	live := 0
	for _, fp := range c.fixed {
		live += fp.LiveBlocks()
	}
	live += c.general.LiveBlocks()
	if int64(live) != c.stats.LiveBlocks {
		return fmt.Errorf("alloc: %d live in pools, %d in stats", live, c.stats.LiveBlocks)
	}
	switch g := c.general.(type) {
	case *GeneralPool:
		return g.checkInvariants()
	case *BuddyPool:
		return g.checkInvariants()
	default:
		return nil
	}
}
