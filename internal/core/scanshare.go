package core

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"spaceodyssey/internal/flight"
	"spaceodyssey/internal/object"
	"spaceodyssey/internal/octree"
	"spaceodyssey/internal/simdisk"
)

// SharingStats counts the engine layer of scan sharing (Config.ShareScans).
// The device layer's counters (coalesced run reads, pages saved) live in
// simdisk.Stats; the Explorer combines both views.
type SharingStats struct {
	// AttachedScans is how many partition reads were answered by attaching
	// to another query's in-flight scan of the same (dataset, cell) at the
	// same layout epoch — walks the engine never re-ran.
	AttachedScans int64
	// SharedBuilds is how many queries waited out another query's in-flight
	// level-0 build instead of herding on the tree's exclusive lock.
	SharedBuilds int64
	// Invalidations is how many times a layout publish (refinement, merge,
	// eviction) actually flushed in-flight entries from the scan registry.
	// Publishes that found the registry empty are not counted — the field
	// measures flushes of real in-flight work, not publish frequency.
	Invalidations int64
}

// scanKey identifies one partition scan: a (dataset, cell) at one layout
// epoch of its tree.
type scanKey struct {
	ds    object.DatasetID
	cell  octree.Key
	epoch int64
}

// scanRegistry is the engine layer of scan sharing: the first query to read
// a (dataset, cell) within a layout epoch leads the scan; queries arriving
// while it is in flight attach to it instead of re-walking the partition.
// Attached readers treat the shared objects as read-only (the engine only
// ever filters from them — objects are values). Registrations live only for
// the duration of the read — this is single-flight, not a cache — and the
// registry is flushed on every layout publish, so a scan result can never
// be handed across a refinement or merge (the race-mode oracle contract).
//
// Safety: readers hold the engine's shared layout lock and the dataset's
// shared tree lock for the whole read, and every layout mutation takes one
// of those exclusively, so an in-flight scan's bytes cannot change under
// its waiters; the epoch in the key and the publish-time flush are the
// cross-check that keeps attachment conservative.
type scanRegistry struct {
	flights flight.Group[scanKey, []object.Object]

	attached      atomic.Int64
	sharedBuilds  atomic.Int64
	invalidations atomic.Int64
}

// Invalidate flushes every in-flight registration. Leaders still complete
// and deliver to already-attached waiters (their reads happened under
// shared locks that excluded the publisher), but no new reader attaches to
// a pre-publish scan. Only flushes that dropped real in-flight work count:
// the Invalidations ledger measures flushes, not publish frequency.
func (r *scanRegistry) Invalidate() {
	if r.flights.Forget() {
		r.invalidations.Add(1)
	}
}

// readThrough is the single-flight read: attach to the in-flight scan of
// key, or lead one and fan its result out. read performs the actual
// partition I/O. A failed leader's waiters re-enter the registry, so
// exactly one of them retries the read and the rest attach to it.
func (r *scanRegistry) readThrough(ctx context.Context, key scanKey,
	read func(context.Context) ([]object.Object, error)) ([]object.Object, error) {
	objs, shared, err := r.flights.Do(ctx, key, func() ([]object.Object, error) {
		return read(ctx)
	})
	if shared {
		if err != nil {
			return nil, simdisk.Canceled(err)
		}
		r.attached.Add(1)
	}
	return objs, err
}

// Stats snapshots the registry counters.
func (r *scanRegistry) Stats() SharingStats {
	return SharingStats{
		AttachedScans: r.attached.Load(),
		SharedBuilds:  r.sharedBuilds.Load(),
		Invalidations: r.invalidations.Load(),
	}
}

// shareReaderFor builds the octree.Tree.ShareReader hook routing one
// dataset's query-path partition reads through the serving stack: the
// result cache first (an exact (dataset, cell, epoch) hit costs nothing),
// then the in-flight scan registry (sharing on), then the actual device
// read — whose completed result is retained in the cache for queries that
// arrive after the scan finished. The partition carries the region metadata
// (cell key and box) the cache keys exact and containment answering on.
func (o *Odyssey) shareReaderFor(ds object.DatasetID, tree *octree.Tree) func(context.Context, *octree.Partition, func(context.Context) ([]object.Object, error)) ([]object.Object, error) {
	return func(ctx context.Context, p *octree.Partition, read func(context.Context) ([]object.Object, error)) ([]object.Object, error) {
		var epoch int64
		if o.rcache != nil {
			// The epoch is loaded before the read: a layout publish racing
			// the read flushes the cache and leaves the later insert dead on
			// arrival (its stored epoch can never match a future lookup) —
			// conservative, never wrong.
			epoch = o.layoutEpoch.Load()
			if objs, ok := o.rcache.Lookup(ds, p.Key(), epoch); ok {
				return objs, nil
			}
			inner := read
			read = func(ctx context.Context) ([]object.Object, error) {
				// Only the goroutine performing the device read marks its
				// own query's scope; queries attached to this scan stay
				// clean (they charged no device read).
				missCacheScope(ctx)
				return inner(ctx)
			}
		}
		var objs []object.Object
		var err error
		if o.scans != nil {
			objs, err = o.scans.readThrough(ctx, scanKey{ds: ds, cell: p.Key(), epoch: tree.Epoch()}, read)
		} else {
			objs, err = read(ctx)
		}
		if err == nil && o.rcache != nil {
			o.rcache.Insert(ds, p.Key(), epoch, p.Box(), objs)
		}
		return objs, err
	}
}

// bumpLayoutEpoch publishes a layout change: the global epoch advances, the
// scan registry (when sharing is on) is flushed so no new reader attaches
// to a pre-publish scan, and the result cache (when caching is on) is
// flushed so no post-publish query is answered from a pre-publish scan.
func (o *Odyssey) bumpLayoutEpoch() {
	o.layoutEpoch.Add(1)
	if o.scans != nil {
		o.scans.Invalidate()
	}
	if o.rcache != nil {
		o.rcache.Invalidate()
	}
}

// ensureBuiltShared single-flights a dataset's level-0 first-touch build:
// one query builds under the exclusive tree lock while every concurrent
// query of the dataset waits on the build instead of queueing on the lock —
// and then proceeds down its ordinary (shared-lock) read path. Returns the
// simulated build time this caller charged (zero for waiters). Only called
// with ShareScans on.
func (o *Odyssey) ensureBuiltShared(ctx context.Context, ds object.DatasetID,
	tree *octree.Tree, lk *sync.RWMutex) (time.Duration, error) {
	lk.RLock()
	built := tree.Built()
	lk.RUnlock()
	if built {
		return 0, nil
	}
	dt, shared, err := o.builds.Do(ctx, ds, func() (time.Duration, error) {
		lk.Lock()
		defer lk.Unlock()
		// A build that finished between the check above and this leader's
		// registration has nothing left to do.
		if tree.Built() {
			return 0, nil
		}
		clock := simdisk.PhaseClock(ctx, o.dev)
		t0 := clock()
		if err := tree.EnsureBuiltCtx(ctx); err != nil {
			return clock() - t0, err
		}
		o.bumpLayoutEpoch()
		return clock() - t0, nil
	})
	if shared {
		o.scans.sharedBuilds.Add(1)
		if err != nil {
			return 0, simdisk.Canceled(err)
		}
		return 0, nil
	}
	return dt, err
}
