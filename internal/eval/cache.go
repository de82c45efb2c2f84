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

// cacheShardBits sizes the memo table at 1<<cacheShardBits independently
// locked segments; 64 keeps lock contention negligible at any realistic
// worker count while costing only a few KB of fixed overhead.
const (
	cacheShardBits = 6
	cacheShards    = 1 << cacheShardBits
)

// slabChunkMax caps the entry chunk a shard allocates at once (see
// cacheShard.newEntry).
const slabChunkMax = 64

// cacheCtx is the part of an evaluation's identity that every item of a
// batch shares: the accelerator and the layer, with Layer.Repeat zeroed
// as CanonicalKey does. A shard interns each context to a small id once
// per batch, so the per-item key carries only the id and the schedule.
type cacheCtx struct {
	a hw.Accel
	l workload.Layer
}

// shard picks the segment that owns the context: an FNV-1a fold of every
// field, finished with a multiply-xorshift so the top bits mix all of
// them. The choice only spreads lock contention; identity is the full
// context value.
func (x *cacheCtx) shard() uint64 {
	const prime = 0x100000001b3
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(x.l.Name); i++ {
		h = (h ^ uint64(x.l.Name[i])) * prime
	}
	for _, v := range [...]int{x.a.PEs, x.a.Width, x.a.SIMDLanes, x.a.RFKB, x.a.L2KB, x.a.NoCBW,
		int(x.l.Op), x.l.N, x.l.K, x.l.C, x.l.R, x.l.S, x.l.X, x.l.Y, x.l.StrideX, x.l.StrideY} {
		h = (h ^ uint64(v)) * prime
	}
	h ^= h >> 32
	h *= 0x9e3779b97f4a7c15
	return h >> (64 - cacheShardBits)
}

// cacheKey is the memo table's key: a shard-local context id and the
// schedule packed into narrow fields. At 76 bytes it is small enough for
// a Go map to store inline, so an entry allocates no key and a lookup
// hashes 76 bytes instead of a ~400-byte Key.
type cacheKey struct {
	ctx                      uint32
	t2, t1                   [workload.NumDims]int32
	outerOrder, innerOrder   [workload.NumDims]uint8
	outerUnroll, innerUnroll uint8
}

// packKey packs s under context id ctx. ok is false when a tile does
// not fit int32 or a dimension does not fit uint8; the cache then passes
// the item through uncached, so packing never makes two distinct
// schedules share an entry.
func packKey(ctx uint32, s *sched.Schedule) (k cacheKey, ok bool) {
	k.ctx = ctx
	for i := range s.T2 {
		k.t2[i], k.t1[i] = int32(s.T2[i]), int32(s.T1[i])
		k.outerOrder[i], k.innerOrder[i] = uint8(s.OuterOrder[i]), uint8(s.InnerOrder[i])
		if int(k.t2[i]) != s.T2[i] || int(k.t1[i]) != s.T1[i] ||
			workload.Dim(k.outerOrder[i]) != s.OuterOrder[i] || workload.Dim(k.innerOrder[i]) != s.InnerOrder[i] {
			return k, false
		}
	}
	k.outerUnroll, k.innerUnroll = uint8(s.OuterUnroll), uint8(s.InnerUnroll)
	return k, workload.Dim(k.outerUnroll) == s.OuterUnroll && workload.Dim(k.innerUnroll) == s.InnerUnroll
}

// cacheEntry is one memoized evaluation. An entry is published whole,
// under the owning shard's lock, and never changes afterwards.
type cacheEntry struct {
	cost maestro.Cost
	err  error
}

// cacheShard is one locked segment of the memo table: its interned
// contexts, its entries, and the slab the entries come from.
type cacheShard struct {
	mu   sync.Mutex
	ctxs map[cacheCtx]uint32
	m    map[cacheKey]*cacheEntry
	slab []cacheEntry // unused tail of the current entry chunk
}

// intern returns x's context id, assigning the next one on first sight.
// Ids are dense per shard; a shard would need 2^32 contexts — terabytes
// of interned layers — to wrap.
func (s *cacheShard) intern(x *cacheCtx) uint32 {
	id, ok := s.ctxs[*x]
	if !ok {
		id = uint32(len(s.ctxs))
		s.ctxs[*x] = id
	}
	return id
}

// newEntry hands out the next slot of the shard's entry slab. A new
// chunk is sized to the table so far (8 up to slabChunkMax entries), so
// a small cache holds little spare and a large one allocates once per
// slabChunkMax misses.
func (s *cacheShard) newEntry() *cacheEntry {
	if len(s.slab) == 0 {
		s.slab = make([]cacheEntry, min(max(len(s.m), 8), slabChunkMax))
	}
	e := &s.slab[0]
	s.slab = s.slab[1:]
	return e
}

// Cache memoizes evaluations of its inner evaluator, keyed on the
// canonical (accelerator, schedule, layer) triple. It exists because the
// search runtime re-evaluates identical triples: BO reruns propose
// duplicate schedules, the Pareto/figure harnesses re-cost the same
// designs across configurations, and jobs sharing a pipeline repeat each
// other's work. The table is sharded for concurrency and answers hits
// and misses only: callers that miss one key at the same moment each
// evaluate it, and the first to publish keeps the entry. The backends
// are pure functions of the key, so every copy is bit-identical.
//
// A batch shares one accelerator and one layer, its context, so the
// table is split the same way: the context picks the shard and is
// interned there to a small id, once per batch under one lock, and each
// item is keyed by that id and its packed schedule (cacheKey). A
// schedule with no packed form is evaluated every time and never
// memoized.
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

	hits    atomic.Int64
	misses  atomic.Int64
	entries atomic.Int64

	tr obs.Tracer // receives cache.hit/miss without a span; set by Chain
}

// WithCache returns the memo-cache middleware.
func WithCache() Middleware {
	return func(inner layer) layer {
		c := &Cache{inner: inner}
		for i := range c.shards {
			c.shards[i].ctxs = make(map[cacheCtx]uint32)
			c.shards[i].m = make(map[cacheKey]*cacheEntry)
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

// cacheScratchPool holds Cache.evaluate's only per-call working set,
// its miss set, so steady-state evaluation allocates nothing here.
var cacheScratchPool = sync.Pool{New: func() any { return new(missSet) }}

// evaluate implements layer with memoization. The batch's context picks
// one shard, whose lock is taken once to look the batch up and once to
// publish its misses:
//
//  1. lookup: intern the context and answer every memoized item as a
//     hit. Every other item, including any with no packed key, joins
//     the miss set.
//  2. evaluate the miss set in ONE inner call.
//  3. publish: insert the memoizable results whose keys are not in
//     the table yet; the first write wins.
//
// Nothing is registered before the inner call, so a panic below the
// cache propagates and leaves the table as it was. A key that two
// callers miss at once, or that appears twice in one batch, is
// evaluated once per copy and counted as that many misses.
//
// Under a span, hits and misses are counted in sp's tally, which End
// emits as one cache.hit and one cache.miss event carrying the counts.
// Either way they reach sp's sink, so on a shared pipeline each job
// sees only its own cache traffic.
func (c *Cache) evaluate(sp *obs.Span, a hw.Accel, ss []sched.Schedule, l workload.Layer, costs []maestro.Cost, errs []error) {
	if len(ss) == 0 {
		return
	}
	x := cacheCtx{a: a, l: l}
	x.l.Repeat = 0
	shard := &c.shards[x.shard()]
	miss := cacheScratchPool.Get().(*missSet)
	defer cacheScratchPool.Put(miss)
	miss.reset()

	ctx := shard.lookup(&x, ss, miss, costs, errs)
	miss.run(c.inner, sp, a, ss, l, costs, errs)

	// Every worker writes these counters, so a zero add, which would
	// still take the cache line, is skipped.
	misses := len(miss.idx)
	if misses > 0 {
		if n := shard.publish(ctx, ss, miss.idx, costs, errs); n > 0 {
			c.entries.Add(n)
		}
		c.misses.Add(int64(misses))
		for range misses {
			sp.CountTo(c.tr, obs.TallyCacheMiss)
		}
	}
	if hits := len(ss) - misses; hits > 0 {
		c.hits.Add(int64(hits))
		for range hits {
			sp.CountTo(c.tr, obs.TallyCacheHit)
		}
	}
}

// lookup is step 1 of Cache.evaluate, under one hold of the lock: it
// leaves every hit's result in costs/errs and every other item in the
// miss set, and returns the batch's context id.
func (s *cacheShard) lookup(x *cacheCtx, ss []sched.Schedule, miss *missSet, costs []maestro.Cost, errs []error) (ctx uint32) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ctx = s.intern(x)
	for i := range ss {
		if k, ok := packKey(ctx, &ss[i]); ok {
			if e, hit := s.m[k]; hit {
				costs[i], errs[i] = e.cost, e.err
				continue
			}
		}
		miss.add(i, ss[i])
	}
	return ctx
}

// publish is step 3 of Cache.evaluate: it memoizes each missed item of
// context ctx, at positions idx, whose outcome is memoizable and whose
// key no other caller (nor an earlier copy in the batch) published
// first. It returns the number of entries added.
func (s *cacheShard) publish(ctx uint32, ss []sched.Schedule, idx []int, costs []maestro.Cost, errs []error) (added int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, i := range idx {
		if errs[i] != nil && !errors.Is(errs[i], maestro.ErrInvalid) {
			continue
		}
		k, ok := packKey(ctx, &ss[i])
		if !ok {
			continue
		}
		if _, dup := s.m[k]; dup {
			continue
		}
		e := s.newEntry()
		e.cost, e.err = costs[i], errs[i]
		s.m[k] = e
		added++
	}
	return added
}

// CacheSnapshot is a point-in-time view of the cache counters.
type CacheSnapshot struct {
	Hits   int64 // calls answered from a memoized entry
	Misses int64 // calls that reached the inner evaluator
	// Coalesced is always 0: the cache evaluates every miss itself and
	// shares no in-flight work. The field remains for readers that
	// still report it.
	Coalesced int64
	Entries   int64 // memoized results currently resident
}

// Snapshot returns the current counters. It is safe to call
// concurrently with evaluation; the fields are read individually, so a
// snapshot taken mid-flight may be off by in-flight calls.
func (c *Cache) Snapshot() CacheSnapshot {
	return CacheSnapshot{
		Hits:    c.hits.Load(),
		Misses:  c.misses.Load(),
		Entries: c.entries.Load(),
	}
}
