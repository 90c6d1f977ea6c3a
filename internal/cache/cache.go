// Package cache implements a generic set-associative, write-back,
// write-allocate cache with LRU replacement. It is used to model the
// paper's three-level hierarchy (32 KB L1, 256 KB private L2, 12 MB
// shared L3) that filters core accesses into the LLC-miss stream seen
// by the heterogeneous memory system.
package cache

import (
	"fmt"

	"chameleon/internal/stats"
)

// Victim describes a line evicted by a fill.
type Victim struct {
	Addr  uint64 // base address of the evicted line
	Dirty bool
}

// Stats aggregates cache activity.
type Stats struct {
	Accesses   uint64
	Hits       uint64
	Misses     uint64
	Writebacks uint64
}

// MissRate returns misses/accesses (0 when idle).
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// Snapshot flattens the stats into the unified metric shape.
func (s Stats) Snapshot() stats.Snapshot {
	return stats.Snapshot{
		"accesses":   float64(s.Accesses),
		"hits":       float64(s.Hits),
		"misses":     float64(s.Misses),
		"writebacks": float64(s.Writebacks),
		"miss_rate":  s.MissRate(),
	}
}

type line struct {
	tag   uint64
	lru   uint64
	valid bool
	dirty bool
}

// Cache is a single cache level.
type Cache struct {
	name      string
	lineShift uint
	sets      uint64
	ways      int
	lines     []line // sets * ways, set-major
	tick      uint64
	stats     Stats
}

// New builds a cache of sizeBytes organised as ways-associative sets of
// lineBytes lines. The line size must be a power of two; the set count
// need not be, because a line's set is its block number modulo the set
// count (the paper's 12 MB 16-way L3 has 12288 sets).
func New(name string, sizeBytes, ways, lineBytes int) (*Cache, error) {
	if sizeBytes <= 0 || ways <= 0 || lineBytes <= 0 {
		return nil, fmt.Errorf("cache %s: parameters must be positive", name)
	}
	if lineBytes&(lineBytes-1) != 0 {
		return nil, fmt.Errorf("cache %s: line size must be a power of two", name)
	}
	sets := sizeBytes / (ways * lineBytes)
	if sets <= 0 {
		return nil, fmt.Errorf("cache %s: set count %d must be positive", name, sets)
	}
	var shift uint
	for l := lineBytes; l > 1; l >>= 1 {
		shift++
	}
	return &Cache{
		name:      name,
		lineShift: shift,
		sets:      uint64(sets),
		ways:      ways,
		lines:     make([]line, sets*ways),
	}, nil
}

// Name returns the cache's label.
func (c *Cache) Name() string { return c.name }

// Stats returns a copy of the accumulated statistics.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats clears the statistics without flushing contents.
func (c *Cache) ResetStats() { c.stats = Stats{} }

// Snapshot implements stats.Source (Name is the cache level's name).
func (c *Cache) Snapshot() stats.Snapshot { return c.stats.Snapshot() }

func (c *Cache) set(addr uint64) (base int, tag uint64) {
	blk := addr >> c.lineShift
	return int(blk%c.sets) * c.ways, blk
}

// Access looks up addr; on a miss the line is filled (write-allocate)
// and the evicted victim, if any, is returned. The returned hit flag is
// false on misses. A write marks the line dirty.
func (c *Cache) Access(addr uint64, write bool) (hit bool, victim Victim, hasVictim bool) {
	c.stats.Accesses++
	c.tick++
	base, tag := c.set(addr)
	set := c.lines[base : base+c.ways]

	for i := range set {
		if set[i].valid && set[i].tag == tag {
			c.stats.Hits++
			set[i].lru = c.tick
			if write {
				set[i].dirty = true
			}
			return true, Victim{}, false
		}
	}
	c.stats.Misses++

	// Choose a fill slot: first invalid, else LRU.
	slot := 0
	for i := range set {
		if !set[i].valid {
			slot = i
			break
		}
		if set[i].lru < set[slot].lru {
			slot = i
		}
	}
	if set[slot].valid {
		victim = Victim{Addr: set[slot].tag << c.lineShift, Dirty: set[slot].dirty}
		hasVictim = true
		if victim.Dirty {
			c.stats.Writebacks++
		}
	}
	set[slot] = line{tag: tag, lru: c.tick, valid: true, dirty: write}
	return false, victim, hasVictim
}

// Probe reports whether addr is present without disturbing LRU or
// statistics.
func (c *Cache) Probe(addr uint64) bool {
	base, tag := c.set(addr)
	set := c.lines[base : base+c.ways]
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			return true
		}
	}
	return false
}

// Invalidate drops addr if present, returning whether the dropped line
// was dirty.
func (c *Cache) Invalidate(addr uint64) (wasDirty bool) {
	base, tag := c.set(addr)
	set := c.lines[base : base+c.ways]
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			wasDirty = set[i].dirty
			set[i] = line{}
			return wasDirty
		}
	}
	return false
}

// Flush invalidates the entire cache, returning the number of dirty
// lines discarded.
func (c *Cache) Flush() (dirty int) {
	for i := range c.lines {
		if c.lines[i].valid && c.lines[i].dirty {
			dirty++
		}
		c.lines[i] = line{}
	}
	return dirty
}
