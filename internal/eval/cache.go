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

// cacheEntry is one memoized (or in-flight) evaluation. Its fields are
// guarded by the owning shard's lock: the leader sets cost, err, keep
// and done together under it and then closes wait, which exists only if
// a follower found the entry in flight and needed to block. After done
// the entry never changes, so a follower that received from wait reads
// it without the lock. keep reports whether the outcome was memoizable
// (followers of a non-kept entry re-evaluate themselves).
type cacheEntry struct {
	cost maestro.Cost
	err  error
	wait chan struct{}
	done bool
	keep bool
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
// search runtime re-evaluates many identical triples: BO reruns propose
// duplicate schedules, checkpoint replays re-walk old samples, and the
// Pareto/figure harnesses re-cost the same designs across
// configurations. The table is sharded for concurrency and deduplicates
// in-flight work single-flight style: when several workers ask for the
// same key at once, one evaluates and the rest wait for its result.
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

// cacheScratch is the reusable per-call working set of Cache.evaluate:
// packed keys, per-item entry pointers and role flags, and the miss
// subset. Pooled so steady-state evaluation allocates nothing here.
type cacheScratch struct {
	keys  []cacheKey
	ents  []*cacheEntry
	flags []uint8
	miss  missSet
}

// role flags for cacheScratch.flags. An item with no flag is in the
// miss set: a leader, which owns its entry and must publish it, or an
// unpackable item, which has no entry.
const (
	flagHit      uint8 = 1 << iota // the entry was published when registered; costs/errs hold it
	flagInFlight                   // follower found the entry unresolved (counts as coalesced)
	flagWait                       // in-flight follower that must receive from the entry's wait
)

var cacheScratchPool = sync.Pool{New: func() any { return new(cacheScratch) }}

func (b *cacheScratch) reset(n int) {
	if cap(b.keys) < n {
		b.keys = make([]cacheKey, n)
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

// evaluate implements layer with memoization and single-flight
// deduplication. The batch's context picks one shard, and each phase
// that touches the table takes its lock once for the whole batch:
//
//  1. register: intern the context; answer every published entry as a
//     hit, follow every in-flight one, and lead a new entry for every
//     other packable item. Leaders and unpackable items form the miss
//     set.
//  2. evaluate the miss set in ONE inner call.
//  3. publish the leaders' results, withdrawing the non-memoizable.
//  4. resolve the followers: those whose entry is still in flight get
//     its wait channel, created here on first need, and block on it.
//
// Followers are resolved only after the leaders publish, which is what
// makes in-batch duplicates safe — a follower of its own batch's leader
// would otherwise wait on work that has not been submitted yet, and by
// phase 4 such an entry is done, so it needs no channel. A follower
// whose leader withdrew its entry (a non-memoizable outcome, or a
// panic) retries: the withdrawn followers go through the cache again as
// a smaller batch, becoming leaders or following whoever got there
// first.
//
// Under a span, hits and misses are counted in sp's tally, which End
// emits as one cache.hit and one cache.miss event carrying the counts;
// leader panics are emitted as they happen, parented under sp. Either
// way they reach sp's sink, so on a shared pipeline each job sees only
// its own cache traffic. An in-batch duplicate counts as coalesced+hit,
// because it genuinely waited on the in-flight leader.
func (c *Cache) evaluate(sp *obs.Span, a hw.Accel, ss []sched.Schedule, l workload.Layer, costs []maestro.Cost, errs []error) {
	if len(ss) == 0 {
		return
	}
	x := cacheCtx{a: a, l: l}
	x.l.Repeat = 0
	shard := &c.shards[x.shard()]
	sc := cacheScratchPool.Get().(*cacheScratch)
	defer cacheScratchPool.Put(sc)
	sc.reset(len(ss))

	leaders, followers := shard.register(&x, ss, sc, costs, errs)

	// If the inner layer panics (no guard below the cache), every
	// unpublished leader entry is withdrawn and released before the
	// panic propagates, so followers retry instead of blocking forever.
	innerReturned := false
	defer func() {
		if innerReturned {
			return
		}
		shard.abandon(sc)
		if obs.Active(sp, c.tr) {
			for i := 0; i < leaders; i++ {
				sp.EmitTo(c.tr, obs.Event{Type: obs.CachePanic})
			}
		}
	}()
	sc.miss.run(c.inner, sp, a, ss, l, costs, errs)
	innerReturned = true

	// Every worker writes these counters, so a zero add, which would
	// still take the cache line, is skipped.
	if leaders > 0 {
		if n := shard.publish(sc, costs, errs); n > 0 {
			c.entries.Add(n)
		}
	}
	if n := len(sc.miss.idx); n > 0 {
		c.misses.Add(int64(n))
	}
	for range sc.miss.idx {
		sp.CountTo(c.tr, obs.TallyCacheMiss)
	}
	if followers > 0 {
		shard.await(sc)
		c.coalesced.Add(int64(followers))
	}

	// Every non-leader is now resolved: a hit, or a retry if its entry
	// was withdrawn.
	sc.miss.reset()
	hits := int64(0)
	for i, f := range sc.flags {
		if f&flagInFlight != 0 {
			e := sc.ents[i]
			if !e.keep {
				sc.miss.add(i, ss[i])
				continue
			}
			costs[i], errs[i] = e.cost, e.err
		} else if f&flagHit == 0 {
			continue // a leader or unpackable item: the inner call answered it
		}
		hits++
		sp.CountTo(c.tr, obs.TallyCacheHit)
	}
	if hits > 0 {
		c.hits.Add(hits)
	}
	sc.miss.run(c, sp, a, ss, l, costs, errs)
}

// register is phase 1 of Cache.evaluate, under one hold of the lock. It
// returns the number of entries the batch leads and of in-flight
// entries it follows.
func (s *cacheShard) register(x *cacheCtx, ss []sched.Schedule, sc *cacheScratch, costs []maestro.Cost, errs []error) (leaders, followers int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ctx := s.intern(x)
	for i := range ss {
		k, ok := packKey(ctx, &ss[i])
		if !ok {
			sc.miss.add(i, ss[i])
			continue
		}
		sc.keys[i] = k
		if e, ok := s.m[k]; ok {
			sc.ents[i] = e
			if e.done {
				sc.flags[i] = flagHit
				costs[i], errs[i] = e.cost, e.err
			} else {
				sc.flags[i] = flagInFlight
				followers++
			}
			continue
		}
		e := s.newEntry()
		s.m[k] = e
		sc.ents[i] = e
		sc.miss.add(i, ss[i])
		leaders++
	}
	return leaders, followers
}

// publish is phase 3: it settles every entry the batch leads with its
// result, withdraws the ones that must not be memoized, and wakes their
// waiting followers. It returns the number of entries kept.
func (s *cacheShard) publish(sc *cacheScratch, costs []maestro.Cost, errs []error) (kept int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, i := range sc.miss.idx {
		e := sc.ents[i]
		if e == nil { // unpackable: evaluated, never memoized
			continue
		}
		e.cost, e.err = costs[i], errs[i]
		e.keep = e.err == nil || errors.Is(e.err, maestro.ErrInvalid)
		if e.keep {
			kept++
		} else {
			delete(s.m, sc.keys[i])
		}
		e.settle()
	}
	return kept
}

// abandon withdraws every entry the batch leads, unpublished because
// the inner layer panicked; their followers see keep false and retry.
func (s *cacheShard) abandon(sc *cacheScratch) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, i := range sc.miss.idx {
		if e := sc.ents[i]; e != nil {
			delete(s.m, sc.keys[i])
			e.settle()
		}
	}
}

// settle marks e done and wakes its followers. The caller holds the
// owning shard's lock.
func (e *cacheEntry) settle() {
	e.done = true
	if e.wait != nil {
		close(e.wait)
	}
}

// await is phase 4: every in-flight entry the batch follows that is
// still unsettled gets a wait channel (the first follower creates it),
// and the batch blocks on each until its leader settles it.
func (s *cacheShard) await(sc *cacheScratch) {
	s.mu.Lock()
	for i, f := range sc.flags {
		if e := sc.ents[i]; f&flagInFlight != 0 && !e.done {
			if e.wait == nil {
				e.wait = make(chan struct{})
			}
			sc.flags[i] |= flagWait
		}
	}
	s.mu.Unlock()
	for i, f := range sc.flags {
		if f&flagWait != 0 {
			<-sc.ents[i].wait
		}
	}
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
