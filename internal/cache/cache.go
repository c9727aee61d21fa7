// Package cache implements LogBase's read buffer (paper §3.6.2): an
// optional, size-bounded cache of recently written and recently read
// record versions. Unlike HBase's memtable, the read buffer never holds
// the only copy of data — evictions are free, which is exactly why the
// log-only design has no flush bottleneck.
//
// The replacement strategy is an abstracted interface (the paper calls
// this out explicitly) with LRU as the default; CLOCK and FIFO are
// provided as alternatives and exercised by the cache-policy ablation
// bench.
package cache

import (
	"container/list"
	"sync"
)

// Policy decides which resident key to evict. Implementations are
// driven under the cache's lock and must not call back into the cache.
type Policy interface {
	// Touch notes that key was accessed (hit or insert).
	Touch(key string)
	// Add notes that key became resident.
	Add(key string)
	// Evict picks and removes the victim. It is only called when at
	// least one key is resident.
	Evict() string
	// Remove notes that key was explicitly invalidated.
	Remove(key string)
	// Name identifies the policy in bench output.
	Name() string
}

// Cache is a byte-budgeted record cache. Safe for concurrent use.
type Cache struct {
	mu       sync.Mutex
	capacity int64
	used     int64
	items    map[string][]byte
	policy   Policy

	hits   int64
	misses int64
}

// Stats reports hit/miss counters.
type Stats struct {
	Hits, Misses int64
	Used         int64
	Items        int
}

// New creates a cache holding at most capacity bytes of values. A nil
// policy means LRU. Capacity <= 0 disables the cache (every Get
// misses, Put is a no-op) — this is the "read buffer is optional"
// configuration.
func New(capacity int64, policy Policy) *Cache {
	if policy == nil {
		policy = NewLRU()
	}
	return &Cache{capacity: capacity, items: make(map[string][]byte), policy: policy}
}

// Get returns the cached value and whether it was present.
func (c *Cache) Get(key string) ([]byte, bool) {
	if c.capacity <= 0 {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.items[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.policy.Touch(key)
	return v, true
}

// Contains reports whether key is cached, without counting a hit or
// touching the replacement policy.
func (c *Cache) Contains(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.items[key]
	return ok
}

// Put inserts or replaces a value, evicting as needed. Values larger
// than the whole capacity are not cached.
func (c *Cache) Put(key string, value []byte) {
	if c.capacity <= 0 || int64(len(value)) > c.capacity {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if old, ok := c.items[key]; ok {
		c.used -= int64(len(old))
		c.items[key] = value
		c.used += int64(len(value))
		c.policy.Touch(key)
	} else {
		c.items[key] = value
		c.used += int64(len(value))
		c.policy.Add(key)
	}
	for c.used > c.capacity && len(c.items) > 0 {
		victim := c.policy.Evict()
		if v, ok := c.items[victim]; ok {
			c.used -= int64(len(v))
			delete(c.items, victim)
		}
	}
}

// Invalidate removes a key (e.g. on delete).
func (c *Cache) Invalidate(key string) {
	if c.capacity <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if v, ok := c.items[key]; ok {
		c.used -= int64(len(v))
		delete(c.items, key)
		c.policy.Remove(key)
	}
}

// Stats returns a snapshot of counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{Hits: c.hits, Misses: c.misses, Used: c.used, Items: len(c.items)}
}

// lru is the default policy: discard the least recently used key.
type lru struct {
	ll  *list.List
	pos map[string]*list.Element
}

// NewLRU returns the default least-recently-used policy.
func NewLRU() Policy {
	return &lru{ll: list.New(), pos: make(map[string]*list.Element)}
}

func (p *lru) Name() string { return "lru" }

func (p *lru) Touch(key string) {
	if e, ok := p.pos[key]; ok {
		p.ll.MoveToFront(e)
	}
}

func (p *lru) Add(key string) { p.pos[key] = p.ll.PushFront(key) }

func (p *lru) Evict() string {
	e := p.ll.Back()
	key := e.Value.(string)
	p.ll.Remove(e)
	delete(p.pos, key)
	return key
}

func (p *lru) Remove(key string) {
	if e, ok := p.pos[key]; ok {
		p.ll.Remove(e)
		delete(p.pos, key)
	}
}

// fifo evicts in insertion order regardless of access.
type fifo struct {
	ll  *list.List
	pos map[string]*list.Element
}

// NewFIFO returns a first-in-first-out policy.
func NewFIFO() Policy {
	return &fifo{ll: list.New(), pos: make(map[string]*list.Element)}
}

func (p *fifo) Name() string   { return "fifo" }
func (p *fifo) Touch(string)   {}
func (p *fifo) Add(key string) { p.pos[key] = p.ll.PushFront(key) }
func (p *fifo) Evict() string {
	e := p.ll.Back()
	key := e.Value.(string)
	p.ll.Remove(e)
	delete(p.pos, key)
	return key
}
func (p *fifo) Remove(key string) {
	if e, ok := p.pos[key]; ok {
		p.ll.Remove(e)
		delete(p.pos, key)
	}
}

// clock is the classic second-chance approximation of LRU.
type clock struct {
	ring []clockSlot
	pos  map[string]int
	hand int
}

type clockSlot struct {
	key  string
	ref  bool
	live bool
}

// NewClock returns a CLOCK (second chance) policy.
func NewClock() Policy {
	return &clock{pos: make(map[string]int)}
}

func (p *clock) Name() string { return "clock" }

func (p *clock) Touch(key string) {
	if i, ok := p.pos[key]; ok {
		p.ring[i].ref = true
	}
}

func (p *clock) Add(key string) {
	// Reuse a dead slot if the hand is on one; otherwise grow.
	for i := range p.ring {
		if !p.ring[i].live {
			p.ring[i] = clockSlot{key: key, ref: true, live: true}
			p.pos[key] = i
			return
		}
	}
	p.ring = append(p.ring, clockSlot{key: key, ref: true, live: true})
	p.pos[key] = len(p.ring) - 1
}

func (p *clock) Evict() string {
	for {
		s := &p.ring[p.hand%len(p.ring)]
		i := p.hand % len(p.ring)
		p.hand++
		if !s.live {
			continue
		}
		if s.ref {
			s.ref = false
			continue
		}
		s.live = false
		delete(p.pos, s.key)
		_ = i
		return s.key
	}
}

func (p *clock) Remove(key string) {
	if i, ok := p.pos[key]; ok {
		p.ring[i].live = false
		delete(p.pos, key)
	}
}
