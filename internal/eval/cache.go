package eval

import (
	"errors"
	"sync"
	"sync/atomic"

	"spotlight/internal/hw"
	"spotlight/internal/maestro"
	"spotlight/internal/obs"
	"spotlight/internal/sched"
	"spotlight/internal/workload"
)

// cacheShards is the number of independently locked segments of the memo
// cache. A power of two so shard selection is a mask; 64 keeps lock
// contention negligible at any realistic worker count while costing only
// a few KB of fixed overhead.
const cacheShards = 64

// Key is the canonical cache identity of one evaluation. The three
// inputs are plain value types (ints, int arrays, and the layer name),
// so Go's struct equality is exact — two keys are equal iff the backend
// would see identical inputs — and the key is directly usable as a map
// key with no serialization. The only canonicalization applied is to
// Layer.Repeat, which is zeroed: Repeat weights a layer's cost in
// model-level aggregates but never reaches the backend's per-evaluation
// math, so shapes that differ only in repeat count share one entry.
type Key struct {
	Accel hw.Accel
	Sched sched.Schedule
	Layer workload.Layer
}

// CanonicalKey builds the cache key for one evaluation, applying the
// canonicalization described on Key.
func CanonicalKey(a hw.Accel, s sched.Schedule, l workload.Layer) Key {
	l.Repeat = 0
	return Key{Accel: a, Sched: s, Layer: l}
}

// Fingerprint folds a key into 64 bits with a splitmix64-style mixer.
// The cache uses it only to pick a shard — entry identity is the full
// Key, so fingerprint collisions cost contention, never correctness.
func Fingerprint(k Key) uint64 {
	z := uint64(0x5307159b0a575e11)
	for _, v := range [...]int{k.Accel.PEs, k.Accel.Width, k.Accel.SIMDLanes,
		k.Accel.RFKB, k.Accel.L2KB, k.Accel.NoCBW} {
		z = fpMix(z, uint64(v))
	}
	for i := 0; i < workload.NumDims; i++ {
		z = fpMix(z, uint64(k.Sched.T2[i]))
		z = fpMix(z, uint64(k.Sched.T1[i]))
		z = fpMix(z, uint64(k.Sched.OuterOrder[i]))
		z = fpMix(z, uint64(k.Sched.InnerOrder[i]))
	}
	z = fpMix(z, uint64(k.Sched.OuterUnroll))
	z = fpMix(z, uint64(k.Sched.InnerUnroll))
	for _, c := range k.Layer.Name {
		z = fpMix(z, uint64(c))
	}
	for _, v := range [...]int{int(k.Layer.Op), k.Layer.N, k.Layer.K, k.Layer.C,
		k.Layer.R, k.Layer.S, k.Layer.X, k.Layer.Y,
		k.Layer.StrideX, k.Layer.StrideY, k.Layer.Repeat} {
		z = fpMix(z, uint64(v))
	}
	return z
}

// fpMix is a splitmix64-style finalizer folding s into state z, the same
// construction core and resilience use for seed derivation.
func fpMix(z, s uint64) uint64 {
	z ^= s + 0x9e3779b97f4a7c15 + (z << 6) + (z >> 2)
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// cacheEntry is one memoized (or in-flight) evaluation. done is closed
// when cost/err are final; keep reports whether the outcome was
// memoizable (followers of a non-kept entry re-evaluate themselves).
type cacheEntry struct {
	done chan struct{}
	cost maestro.Cost
	err  error
	keep bool
}

// cacheShard is one locked segment of the memo table.
type cacheShard struct {
	mu sync.Mutex
	m  map[Key]*cacheEntry
}

// Cache memoizes evaluations of its inner evaluator, keyed on the
// canonical (accelerator, schedule, layer) triple. It exists because the
// search runtime re-evaluates many identical triples: BO reruns propose
// duplicate schedules, checkpoint replays re-walk old samples, and the
// Pareto/figure harnesses re-cost the same designs across
// configurations. The table is sharded for concurrency and deduplicates
// in-flight work single-flight style: when several workers ask for the
// same key at once, one evaluates and the rest wait for its result.
//
// Memoization preserves the evaluator contract bit-exactly: a hit
// returns the identical maestro.Cost value and the identical error the
// miss produced. Successful evaluations and infeasibility verdicts
// (errors wrapping maestro.ErrInvalid) are memoized — both are
// deterministic properties of the design point. Any other error
// (timeouts, injected transients, panics converted by a guard below) is
// returned but NOT memoized, so a fault never poisons the cache.
//
// Entries are never evicted: a co-design run's working set is bounded by
// its sample budget, and the figure harnesses want cross-trial reuse.
// The zero value is not usable; build one with WithCache.
type Cache struct {
	inner  layer
	shards [cacheShards]cacheShard

	hits      atomic.Int64
	misses    atomic.Int64
	coalesced atomic.Int64
	entries   atomic.Int64

	tr obs.Tracer // receives cache.hit/miss/leaderpanic without a span; set by Chain
}

// WithCache returns the memo-cache middleware.
func WithCache() Middleware {
	return func(inner layer) layer {
		c := &Cache{inner: inner}
		for i := range c.shards {
			c.shards[i].m = make(map[Key]*cacheEntry)
		}
		return c
	}
}

// Name implements layer. The cache is trajectory-neutral — a
// cached pipeline returns bit-identical results to an uncached one — so
// it is transparent in the name (and the checkpoint fingerprint).
func (c *Cache) Name() string { return c.inner.Name() }

// missSet is the reusable miss subset of a caching layer's batch: the
// positions of the items that must go to the layer below, their
// schedules, and result buffers for that one inner call.
type missSet struct {
	idx   []int
	ss    []sched.Schedule
	costs []maestro.Cost
	errs  []error
}

func (m *missSet) reset() {
	m.idx = m.idx[:0]
	m.ss = m.ss[:0]
}

func (m *missSet) add(i int, s sched.Schedule) {
	m.idx = append(m.idx, i)
	m.ss = append(m.ss, s)
}

// run evaluates the miss subset with one call into inner and leaves
// each result at its item's position in costs/errs. When every item
// missed, the caller's slices go straight through; an empty subset
// makes no call.
func (m *missSet) run(inner layer, sp *obs.Span, a hw.Accel, ss []sched.Schedule, l workload.Layer, costs []maestro.Cost, errs []error) {
	switch len(m.idx) {
	case 0:
		return
	case len(ss):
		inner.evaluate(sp, a, ss, l, costs, errs)
		return
	}
	n := len(m.idx)
	if cap(m.costs) < n {
		m.costs = make([]maestro.Cost, n)
		m.errs = make([]error, n)
	}
	mc, me := m.costs[:n], m.errs[:n]
	inner.evaluate(sp, a, m.ss, l, mc, me)
	for j, i := range m.idx {
		costs[i], errs[i] = mc[j], me[j]
		me[j] = nil
	}
}

// cacheScratch is the reusable per-call working set of Cache.evaluate:
// canonical keys, per-item entry pointers and role flags, and the miss
// subset. Pooled so steady-state evaluation allocates nothing here.
type cacheScratch struct {
	keys  []Key
	ents  []*cacheEntry
	flags []uint8
	miss  missSet
}

// role flags for cacheScratch.flags.
const (
	flagLeader   uint8 = 1 << iota // this call owns the entry and must publish it
	flagInFlight                   // follower found the entry unresolved (counts as coalesced)
)

var cacheScratchPool = sync.Pool{New: func() any { return new(cacheScratch) }}

func (b *cacheScratch) reset(n int) {
	if cap(b.keys) < n {
		b.keys = make([]Key, n)
		b.ents = make([]*cacheEntry, n)
		b.flags = make([]uint8, n)
	}
	b.keys = b.keys[:n]
	b.ents = b.ents[:n]
	b.flags = b.flags[:n]
	for i := 0; i < n; i++ {
		b.ents[i] = nil
		b.flags[i] = 0
	}
	b.miss.reset()
}

// shard returns the table segment that owns k.
func (c *Cache) shard(k Key) *cacheShard { return &c.shards[Fingerprint(k)&(cacheShards-1)] }

// withdraw removes k's entry from the table, so the next caller for k
// evaluates it afresh.
func (c *Cache) withdraw(k Key) {
	shard := c.shard(k)
	shard.mu.Lock()
	delete(shard.m, k)
	shard.mu.Unlock()
}

// evaluate implements layer with memoization and single-flight
// deduplication. The batch is partitioned into memoized hits, a miss
// set this call leads, and followers of in-flight entries (other
// callers' or this very batch's leaders, for duplicate keys). The
// misses go to the inner layer in ONE call; followers are resolved only
// after the leaders publish, which is what makes in-batch duplicates
// safe — a follower of its own batch's leader would otherwise deadlock
// waiting on work that has not been submitted yet. A follower whose
// leader withdrew its entry (a non-memoizable outcome, or a panic)
// retries: the withdrawn followers go through the cache again as a
// smaller batch, becoming leaders or following whoever got there first.
//
// Memoization keeps successes and ErrInvalid verdicts and withdraws
// faults. Under a span, hits and misses are counted in sp's tally,
// which End emits as one cache.hit and one cache.miss event carrying
// the counts; leader panics are emitted as they happen, parented under
// sp. Either way they reach sp's sink, so on a shared pipeline each job
// sees only its own cache traffic. An in-batch duplicate counts as
// coalesced+hit, because it genuinely waited on the in-flight leader.
func (c *Cache) evaluate(sp *obs.Span, a hw.Accel, ss []sched.Schedule, l workload.Layer, costs []maestro.Cost, errs []error) {
	if len(ss) == 0 {
		return
	}
	sc := cacheScratchPool.Get().(*cacheScratch)
	defer cacheScratchPool.Put(sc)
	sc.reset(len(ss))

	// Phase 1: register every item, becoming leader or follower per key.
	for i := range ss {
		sc.keys[i] = CanonicalKey(a, ss[i], l)
		shard := c.shard(sc.keys[i])
		shard.mu.Lock()
		if e, ok := shard.m[sc.keys[i]]; ok {
			shard.mu.Unlock()
			sc.ents[i] = e
			select {
			case <-e.done:
			default:
				sc.flags[i] |= flagInFlight
			}
			continue
		}
		e := &cacheEntry{done: make(chan struct{})}
		shard.m[sc.keys[i]] = e
		shard.mu.Unlock()
		sc.ents[i] = e
		sc.flags[i] |= flagLeader
		sc.miss.add(i, ss[i])
	}

	// Phase 2: one inner call for all misses. If the inner layer panics
	// (no guard below the cache), every unpublished leader entry is
	// withdrawn and released before the panic propagates, so followers
	// retry instead of blocking forever.
	innerReturned := false
	defer func() {
		if innerReturned {
			return
		}
		for _, i := range sc.miss.idx {
			c.withdraw(sc.keys[i])
			close(sc.ents[i].done)
			if obs.Active(sp, c.tr) {
				sp.EmitTo(c.tr, obs.Event{Type: obs.CachePanic})
			}
		}
	}()
	sc.miss.run(c.inner, sp, a, ss, l, costs, errs)
	innerReturned = true

	// Phase 3: publish the leaders' results.
	for _, i := range sc.miss.idx {
		e := sc.ents[i]
		e.cost, e.err = costs[i], errs[i]
		e.keep = e.err == nil || errors.Is(e.err, maestro.ErrInvalid)
		if e.keep {
			c.entries.Add(1)
		} else {
			c.withdraw(sc.keys[i])
		}
		c.misses.Add(1)
		sp.CountTo(c.tr, obs.TallyCacheMiss)
		close(e.done)
	}

	// Phase 4: resolve followers, now that every leader in this batch
	// has published; collect the ones whose entry was withdrawn.
	sc.miss.reset()
	for i := range ss {
		if sc.flags[i]&flagLeader != 0 {
			continue
		}
		e := sc.ents[i]
		<-e.done
		if sc.flags[i]&flagInFlight != 0 {
			c.coalesced.Add(1)
		}
		if !e.keep {
			sc.miss.add(i, ss[i])
			continue
		}
		c.hits.Add(1)
		sp.CountTo(c.tr, obs.TallyCacheHit)
		costs[i], errs[i] = e.cost, e.err
	}
	sc.miss.run(c, sp, a, ss, l, costs, errs)
}

// CacheSnapshot is a point-in-time view of the cache counters.
type CacheSnapshot struct {
	Hits      int64 // calls answered from a memoized entry
	Misses    int64 // calls that reached the inner evaluator
	Coalesced int64 // calls that waited on another caller's in-flight evaluation
	Entries   int64 // memoized results currently resident
}

// Snapshot returns the current counters. It is safe to call
// concurrently with evaluation; the fields are read individually, so a
// snapshot taken mid-flight may be off by in-flight calls.
func (c *Cache) Snapshot() CacheSnapshot {
	return CacheSnapshot{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Coalesced: c.coalesced.Load(),
		Entries:   c.entries.Load(),
	}
}
