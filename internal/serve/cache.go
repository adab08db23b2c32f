package serve

import (
	"sync"
	"sync/atomic"
	"time"
)

// Entry is one resident answer together with the metadata the persistence
// and expiry machinery needs: the computation time (the TTL anchor), and
// whether the entry was replayed from disk rather than computed by this
// process (the persist-hit counter). Which model computed it is part of the
// key, not the entry.
type Entry[A any] struct {
	Val A
	OK  bool
	// At is when the answer was computed; the runtime treats entries older
	// than Options.TTL as misses.
	At time.Time
	// Persisted marks entries replayed from the disk log at open.
	Persisted bool
	// Weight is the entry's cost in cache-capacity units (Options.Weigh): a
	// heavy answer (a large top-K result) competes for the same budget as
	// the many light entries it displaces, instead of evicting them
	// one-for-one. Values below 1 count as 1. Weight is a residency hint,
	// not part of the answer — it is not persisted, so entries replayed
	// from disk weigh 1 until recomputed.
	Weight int
}

// answerCache is the runtime's answer cache: a sharded LRU over normalized
// questions. Get reports pure residency — TTL filtering is the runtime's
// job. Each shard is an independently mutex-guarded LRU list + map, so
// concurrent lookups of different questions rarely contend on the same
// lock. The cache stores negative results too ("no answer" replies), which
// protects the engine from repeated unanswerable questions just as well as
// from popular ones.
// Capacity is a weight budget: entries cost Entry.Weight units (floored at
// 1), so a single giant answer competes against the many small entries it
// would otherwise evict one-for-one.
type answerCache[A any] struct {
	shards    []*cacheShard[A]
	evictions atomic.Uint64
}

// cached is one resident answer; entries form a doubly-linked MRU list
// threaded through the shard's sentinel root.
type cached[A any] struct {
	key        string
	e          Entry[A]
	prev, next *cached[A]
}

type cacheShard[A any] struct {
	mu    sync.Mutex
	cap   int
	used  int // resident weight (entryWeight sum); == len(items) when unweighted
	items map[string]*cached[A]
	root  cached[A] // sentinel: root.next = MRU, root.prev = LRU
}

// entryWeight is an entry's capacity cost: its Weight, floored at 1 so
// unweighted entries (and replayed ones, whose weight is not persisted)
// keep the classic one-slot-per-entry accounting.
func entryWeight(w int) int {
	if w < 1 {
		return 1
	}
	return w
}

// newAnswerCache builds a cache of shards × perShard capacity; total
// capacity is split evenly with every shard holding at least one entry.
func newAnswerCache[A any](shards, capacity int) *answerCache[A] {
	if shards < 1 {
		shards = 1
	}
	perShard := capacity / shards
	if perShard < 1 {
		perShard = 1
	}
	c := &answerCache[A]{shards: make([]*cacheShard[A], shards)}
	for i := range c.shards {
		s := &cacheShard[A]{cap: perShard, items: make(map[string]*cached[A], perShard+1)}
		s.root.next = &s.root
		s.root.prev = &s.root
		c.shards[i] = s
	}
	return c
}

// fnv1a hashes the key for shard selection (FNV-1a, inlined to avoid the
// hash.Hash32 allocation per lookup).
func fnv1a(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

func (c *answerCache[A]) shard(key string) *cacheShard[A] {
	return c.shards[fnv1a(key)%uint32(len(c.shards))]
}

// Get returns the cached entry and whether the key was resident.
func (c *answerCache[A]) Get(key string) (Entry[A], bool) {
	return c.shard(key).get(key)
}

// Put inserts or refreshes an entry, bumping the eviction counter for
// every cold entry displaced (a heavy entry may displace several).
func (c *answerCache[A]) Put(key string, e Entry[A]) {
	if n := c.shard(key).put(key, e); n > 0 {
		c.evictions.Add(uint64(n))
	}
}

// Delete removes the entry if resident, counting the removal as an
// eviction — the caller is freeing a slot the entry no longer deserves
// (typically a TTL-expired read).
func (c *answerCache[A]) Delete(key string) {
	if c.shard(key).del(key) {
		c.evictions.Add(1)
	}
}

// Len reports the number of resident entries across all shards.
func (c *answerCache[A]) Len() int {
	n := 0
	for _, s := range c.shards {
		s.mu.Lock()
		n += len(s.items)
		s.mu.Unlock()
	}
	return n
}

// Evictions counts entries displaced by capacity pressure.
func (c *answerCache[A]) Evictions() uint64 { return c.evictions.Load() }

// entries snapshots every resident entry, least recently used first within
// each shard, for the disk log's compaction (replaying the snapshot in
// order re-warms the hottest entries last).
func (c *answerCache[A]) entries() []liveEntry[A] {
	var out []liveEntry[A]
	for _, s := range c.shards {
		s.mu.Lock()
		for e := s.root.prev; e != &s.root; e = e.prev {
			out = append(out, liveEntry[A]{key: e.key, e: e.e})
		}
		s.mu.Unlock()
	}
	return out
}

func (s *cacheShard[A]) get(key string) (Entry[A], bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.items[key]
	if e == nil {
		return Entry[A]{}, false
	}
	s.detach(e)
	s.pushFront(e)
	return e.e, true
}

// put admits (or refreshes) an entry under the shard's weight budget,
// evicting from the LRU end until the budget holds again. It returns the
// number of displaced entries. An entry heavier than the whole shard is
// refused — admitting it would flush every neighbor and still not fit —
// and any stale resident copy under the same key is dropped with it.
func (s *cacheShard[A]) put(key string, entry Entry[A]) (evicted int) {
	w := entryWeight(entry.Weight)
	s.mu.Lock()
	defer s.mu.Unlock()
	if w > s.cap {
		if e := s.items[key]; e != nil {
			s.used -= entryWeight(e.e.Weight)
			s.detach(e)
			delete(s.items, key)
			evicted++
		}
		return evicted
	}
	if e := s.items[key]; e != nil {
		s.used += w - entryWeight(e.e.Weight)
		e.e = entry
		s.detach(e)
		s.pushFront(e)
	} else {
		e := &cached[A]{key: key, e: entry}
		s.items[key] = e
		s.pushFront(e)
		s.used += w
	}
	// The new entry sits at the MRU end and weighs at most the budget, so
	// this loop always terminates before reaching it.
	for s.used > s.cap {
		lru := s.root.prev
		s.used -= entryWeight(lru.e.Weight)
		s.detach(lru)
		delete(s.items, lru.key)
		evicted++
	}
	return evicted
}

func (s *cacheShard[A]) del(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.items[key]
	if e == nil {
		return false
	}
	s.used -= entryWeight(e.e.Weight)
	s.detach(e)
	delete(s.items, key)
	return true
}

func (s *cacheShard[A]) detach(e *cached[A]) {
	e.prev.next = e.next
	e.next.prev = e.prev
}

func (s *cacheShard[A]) pushFront(e *cached[A]) {
	e.prev = &s.root
	e.next = s.root.next
	e.next.prev = e
	s.root.next = e
}
