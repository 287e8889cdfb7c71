// Package memo provides the shared memoization layer of the evaluation
// service: a sharded LRU cache keyed by canonical strings, and a
// single-flight wrapper that collapses concurrent identical computations so
// a thundering herd of equal requests runs the underlying evaluation once.
//
// The mapper's GA (which revisits encodings across generations) and the
// HTTP evaluation service both store their results through the same Cache
// interface, so a design point evaluated anywhere is evaluated once.
package memo

import (
	"container/list"
	"context"
	"errors"
	"hash/fnv"
	"sync"
	"sync/atomic"
)

// Stats is a point-in-time snapshot of cache effectiveness counters.
type Stats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
}

// HitRate is hits / (hits + misses), or 0 before any lookup.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Cache is the memoization interface shared by the mapper and the serve
// subsystem. Implementations must be safe for concurrent use.
type Cache interface {
	// Get returns the cached value for key, if present.
	Get(key string) (any, bool)
	// Put stores a value under key, possibly evicting older entries.
	Put(key string, v any)
	// Len reports the number of resident entries.
	Len() int
	// Stats snapshots the hit/miss/eviction counters.
	Stats() Stats
}

const numShards = 16

// ShardedLRU is a Cache split into independently locked shards, each with
// its own LRU eviction list, so concurrent evaluators do not serialize on
// one mutex.
type ShardedLRU struct {
	shards    [numShards]lruShard
	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
}

type lruShard struct {
	mu    sync.Mutex
	cap   int
	items map[string]*list.Element
	order *list.List // front = most recently used
}

type lruEntry struct {
	key string
	v   any
}

// NewShardedLRU builds a cache holding about capacity entries in total
// (rounded up to a multiple of the shard count; capacity <= 0 defaults to
// 4096).
func NewShardedLRU(capacity int) *ShardedLRU {
	if capacity <= 0 {
		capacity = 4096
	}
	perShard := (capacity + numShards - 1) / numShards
	c := &ShardedLRU{}
	for i := range c.shards {
		c.shards[i].cap = perShard
		c.shards[i].items = make(map[string]*list.Element)
		c.shards[i].order = list.New()
	}
	return c
}

func (c *ShardedLRU) shard(key string) *lruShard {
	h := fnv.New32a()
	h.Write([]byte(key))
	return &c.shards[h.Sum32()%numShards]
}

// Get implements Cache.
func (c *ShardedLRU) Get(key string) (any, bool) {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.items[key]
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	s.order.MoveToFront(el)
	c.hits.Add(1)
	return el.Value.(*lruEntry).v, true
}

// Put implements Cache.
func (c *ShardedLRU) Put(key string, v any) {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[key]; ok {
		el.Value.(*lruEntry).v = v
		s.order.MoveToFront(el)
		return
	}
	s.items[key] = s.order.PushFront(&lruEntry{key: key, v: v})
	for len(s.items) > s.cap {
		oldest := s.order.Back()
		if oldest == nil {
			break
		}
		s.order.Remove(oldest)
		delete(s.items, oldest.Value.(*lruEntry).key)
		c.evictions.Add(1)
	}
}

// Len implements Cache.
func (c *ShardedLRU) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.items)
		s.mu.Unlock()
	}
	return n
}

// Stats implements Cache.
func (c *ShardedLRU) Stats() Stats {
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
	}
}

// FlightCache combines a Cache with single-flight execution: Do runs fn at
// most once per key at a time, and concurrent callers for the same key wait
// for the leader's result instead of recomputing it. Followers and cache
// lookups count as hits; only leader executions count as misses, so the hit
// rate reflects evaluations actually avoided.
type FlightCache struct {
	c      Cache
	mu     sync.Mutex
	calls  map[string]*flightCall
	hits   atomic.Uint64
	misses atomic.Uint64
	// waiting, when set, runs each time a caller starts waiting on another
	// caller's in-flight computation; tests use it as a barrier.
	waiting func()
}

type flightCall struct {
	done chan struct{}
	v    any
	err  error
}

// NewFlightCache wraps a Cache (NewShardedLRU(capacity) when c is nil).
func NewFlightCache(c Cache, capacity int) *FlightCache {
	if c == nil {
		c = NewShardedLRU(capacity)
	}
	return &FlightCache{c: c, calls: map[string]*flightCall{}}
}

// Do returns the cached value for key, or computes it with fn. The second
// return reports whether the value was served without running fn in this
// call (a cache hit or a shared in-flight result). Errors are not cached.
// A caller waiting on another caller's in-flight computation gives up with
// ctx.Err() when its own context expires first. A leader failing with a
// context error (its request canceled or out of deadline) says nothing
// about the computation itself, so waiters whose own context is still live
// do not inherit it: they retry, and one becomes the new leader.
func (f *FlightCache) Do(ctx context.Context, key string, fn func() (any, error)) (any, bool, error) {
	for {
		if v, ok := f.c.Get(key); ok {
			f.hits.Add(1)
			return v, true, nil
		}
		f.mu.Lock()
		if call, ok := f.calls[key]; ok {
			f.mu.Unlock()
			if f.waiting != nil {
				f.waiting()
			}
			select {
			case <-call.done:
			case <-ctx.Done():
				return nil, false, ctx.Err()
			}
			if call.err != nil {
				if errors.Is(call.err, context.Canceled) || errors.Is(call.err, context.DeadlineExceeded) {
					if err := ctx.Err(); err != nil {
						return nil, false, err
					}
					continue
				}
				return nil, false, call.err
			}
			f.hits.Add(1)
			return call.v, true, nil
		}
		// A leader may have stored the value and left between the lookup
		// above and the lock; it must not be computed twice.
		if v, ok := f.c.Get(key); ok {
			f.mu.Unlock()
			f.hits.Add(1)
			return v, true, nil
		}
		call := &flightCall{done: make(chan struct{})}
		f.calls[key] = call
		f.mu.Unlock()

		call.v, call.err = fn()
		if call.err == nil {
			f.c.Put(key, call.v)
		}
		f.mu.Lock()
		delete(f.calls, key)
		f.mu.Unlock()
		close(call.done)

		f.misses.Add(1)
		if call.err != nil {
			return nil, false, call.err
		}
		return call.v, false, nil
	}
}

// Get implements Cache: a plain lookup counted against the flight-aware
// hit/miss counters. Callers that manage their own computation (instead of
// Do) should pair it with Put.
func (f *FlightCache) Get(key string) (any, bool) {
	if v, ok := f.c.Get(key); ok {
		f.hits.Add(1)
		return v, true
	}
	f.misses.Add(1)
	return nil, false
}

// Put implements Cache, storing directly into the underlying cache.
func (f *FlightCache) Put(key string, v any) { f.c.Put(key, v) }

// Len reports resident entries in the underlying cache.
func (f *FlightCache) Len() int { return f.c.Len() }

// Stats reports single-flight-aware counters: hits include shared in-flight
// results, misses are leader executions; evictions come from the underlying
// cache.
func (f *FlightCache) Stats() Stats {
	return Stats{
		Hits:      f.hits.Load(),
		Misses:    f.misses.Load(),
		Evictions: f.c.Stats().Evictions,
	}
}
