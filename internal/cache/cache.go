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

// Cache is a single cache level, stored as one []uint64 in set-major
// order. Set s occupies 2*ways words starting at s*2*ways:
//
//   - first ways tag words, one per way: the line's block number
//     (addr >> lineShift) plus one, so that zero marks an invalid way.
//     A lookup scans only these, 8 B per way, so an 8-way set's tags
//     take 64 B, one host cache line's worth;
//   - then ways stamp words: the access tick of the line's last touch
//     shifted left one bit, with the dirty flag in bit 0. Every access
//     advances the tick and stamps exactly one line, so valid lines
//     carry distinct ticks and comparing stamps orders them by recency
//     just as comparing ticks would. An invalid way's stamp is zero.
//
// A fill takes the first invalid way, else the least recently used
// one. The whole level is one allocation, 16 B per line. The
// block-plus-one encoding cannot represent the block 2^64−1, which only
// exists with 1-byte lines at the top of the address space.
type Cache struct {
	name      string
	lineShift uint
	sets      uint64
	ways      int
	words     []uint64 // sets * 2*ways: per set, ways tags then ways stamps
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
		words:     make([]uint64, sets*2*ways),
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

// set returns addr's set as its tag and stamp words, and the tag word
// addr's line has when resident.
func (c *Cache) set(addr uint64) (tags, stamps []uint64, key uint64) {
	blk := addr >> c.lineShift
	base := int(blk%c.sets) * 2 * c.ways
	w := c.words[base : base+2*c.ways]
	return w[:c.ways], w[c.ways:], blk + 1
}

// dirtyBit is a stamp's dirty flag for a write (1) or a read (0).
func dirtyBit(write bool) uint64 {
	if write {
		return 1
	}
	return 0
}

// Access looks up addr; on a miss the line is filled (write-allocate)
// and the evicted victim, if any, is returned. The returned hit flag is
// false on misses. A write marks the line dirty.
func (c *Cache) Access(addr uint64, write bool) (hit bool, victim Victim, hasVictim bool) {
	c.stats.Accesses++
	c.tick++
	tags, stamps, key := c.set(addr)
	stamps = stamps[:len(tags)]

	for i, t := range tags {
		if t == key {
			c.stats.Hits++
			stamps[i] = c.tick<<1 | stamps[i]&1 | dirtyBit(write)
			return true, Victim{}, false
		}
	}
	c.stats.Misses++

	// Choose a fill slot: first invalid, else LRU.
	slot, oldest := 0, stamps[0]
	for i, t := range tags {
		if t == 0 {
			slot = i
			break
		}
		// Branch-free minimum: recency order is random, so a compare
		// and jump would mispredict. Stamps stay below 2^63, so the
		// difference's sign bit is set exactly when st < oldest.
		st := stamps[i]
		older := -((st - oldest) >> 63)
		slot ^= (slot ^ i) & int(older)
		oldest ^= (oldest ^ st) & older
	}
	if old := tags[slot]; old != 0 {
		victim = Victim{Addr: (old - 1) << c.lineShift, Dirty: stamps[slot]&1 != 0}
		hasVictim = true
		if victim.Dirty {
			c.stats.Writebacks++
		}
	}
	tags[slot] = key
	stamps[slot] = c.tick<<1 | dirtyBit(write)
	return false, victim, hasVictim
}

// Probe reports whether addr is present without disturbing LRU or
// statistics.
func (c *Cache) Probe(addr uint64) bool {
	tags, _, key := c.set(addr)
	for _, t := range tags {
		if t == key {
			return true
		}
	}
	return false
}

// Invalidate drops addr if present, returning whether the dropped line
// was dirty.
func (c *Cache) Invalidate(addr uint64) (wasDirty bool) {
	tags, stamps, key := c.set(addr)
	for i, t := range tags {
		if t == key {
			wasDirty = stamps[i]&1 != 0
			tags[i], stamps[i] = 0, 0
			return wasDirty
		}
	}
	return false
}

// Flush invalidates the entire cache, returning the number of dirty
// lines discarded.
func (c *Cache) Flush() (dirty int) {
	for base := c.ways; base < len(c.words); base += 2 * c.ways {
		for _, st := range c.words[base : base+c.ways] {
			dirty += int(st & 1)
		}
	}
	clear(c.words)
	return dirty
}
