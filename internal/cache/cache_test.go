package cache

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func mustCache(t *testing.T, size, ways, line int) *Cache {
	t.Helper()
	c, err := New("t", size, ways, line)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestBasicHitMiss(t *testing.T) {
	c := mustCache(t, 4096, 4, 64) // 16 sets
	if hit, _, _ := c.Access(0, false); hit {
		t.Error("first access should miss")
	}
	if hit, _, _ := c.Access(0, false); !hit {
		t.Error("second access should hit")
	}
	if hit, _, _ := c.Access(32, false); !hit {
		t.Error("same-line access should hit")
	}
	if hit, _, _ := c.Access(64, false); hit {
		t.Error("next line should miss")
	}
	st := c.Stats()
	if st.Accesses != 4 || st.Hits != 2 || st.Misses != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestLRUReplacement(t *testing.T) {
	c := mustCache(t, 2*64, 2, 64) // 1 set, 2 ways
	c.Access(0, false)
	c.Access(64, false)
	c.Access(0, false)   // touch 0 again; 64 is now LRU
	c.Access(128, false) // evicts 64
	if !c.Probe(0) {
		t.Error("line 0 (MRU) should survive")
	}
	if c.Probe(64) {
		t.Error("line 64 (LRU) should be evicted")
	}
	if !c.Probe(128) {
		t.Error("line 128 should be resident")
	}
}

func TestDirtyVictim(t *testing.T) {
	c := mustCache(t, 2*64, 2, 64)
	c.Access(0, true) // dirty
	c.Access(64, false)
	_, v, hv := c.Access(128, false) // evicts 0
	if !hv || v.Addr != 0 || !v.Dirty {
		t.Errorf("victim = %+v (hv=%v), want dirty line 0", v, hv)
	}
	if c.Stats().Writebacks != 1 {
		t.Errorf("writebacks = %d", c.Stats().Writebacks)
	}
}

func TestCleanVictimNotWrittenBack(t *testing.T) {
	c := mustCache(t, 2*64, 2, 64)
	c.Access(0, false)
	c.Access(64, false)
	_, v, hv := c.Access(128, false)
	if !hv || v.Dirty {
		t.Errorf("victim = %+v, want clean", v)
	}
	if c.Stats().Writebacks != 0 {
		t.Error("clean eviction should not count a writeback")
	}
}

func TestWriteHitMarksDirty(t *testing.T) {
	c := mustCache(t, 2*64, 2, 64)
	c.Access(0, false)
	c.Access(0, true) // write hit
	c.Access(64, false)
	_, v, _ := c.Access(128, false) // evict 0
	if !v.Dirty {
		t.Error("write hit should have marked the line dirty")
	}
}

func TestInvalidate(t *testing.T) {
	c := mustCache(t, 4096, 4, 64)
	c.Access(0, true)
	if !c.Invalidate(0) {
		t.Error("invalidate should report dirty")
	}
	if c.Probe(0) {
		t.Error("line should be gone")
	}
	if c.Invalidate(0) {
		t.Error("second invalidate should find nothing dirty")
	}
}

func TestFlush(t *testing.T) {
	c := mustCache(t, 4096, 4, 64)
	c.Access(0, true)
	c.Access(64, false)
	if d := c.Flush(); d != 1 {
		t.Errorf("Flush dirty count = %d, want 1", d)
	}
	if c.Probe(0) || c.Probe(64) {
		t.Error("flush should empty the cache")
	}
}

func TestNonPowerOfTwoSets(t *testing.T) {
	// 12 MB, 16 ways, 64 B lines => 12288 sets (Table I's L3).
	c := mustCache(t, 12<<20, 16, 64)
	c.Access(0, false)
	if hit, _, _ := c.Access(0, false); !hit {
		t.Error("L3-geometry cache broken")
	}
}

func TestNewErrors(t *testing.T) {
	if _, err := New("x", 0, 4, 64); err == nil {
		t.Error("zero size should fail")
	}
	if _, err := New("x", 4096, 4, 48); err == nil {
		t.Error("non power-of-two line should fail")
	}
	if _, err := New("x", 64, 4, 64); err == nil {
		t.Error("cache smaller than one set should fail")
	}
}

// TestCapacityProperty: after any access sequence, the number of
// resident distinct lines cannot exceed the cache's line capacity, and
// a working set no larger than one set's associativity always hits
// after the first touch.
func TestCapacityProperty(t *testing.T) {
	f := func(addrs []uint16) bool {
		c, err := New("q", 2048, 4, 64) // 32 lines
		if err != nil {
			return false
		}
		for _, a := range addrs {
			c.Access(uint64(a), a%3 == 0)
		}
		resident := 0
		for line := uint64(0); line <= 0xFFFF>>6; line++ {
			if c.Probe(line << 6) {
				resident++
			}
		}
		return resident <= 32
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSmallWorkingSetAlwaysHits(t *testing.T) {
	c := mustCache(t, 4096, 4, 64)
	// 4 lines in the same set (set 0 of 16): exactly associativity.
	lines := []uint64{0, 16 * 64, 32 * 64, 48 * 64}
	for _, l := range lines {
		c.Access(l, false)
	}
	st0 := c.Stats()
	for i := 0; i < 100; i++ {
		for _, l := range lines {
			c.Access(l, false)
		}
	}
	if got := c.Stats().Misses - st0.Misses; got != 0 {
		t.Errorf("resident working set missed %d times", got)
	}
}

func TestResetStatsKeepsContents(t *testing.T) {
	c := mustCache(t, 4096, 4, 64)
	c.Access(0, false)
	c.ResetStats()
	if c.Stats().Accesses != 0 {
		t.Error("stats not reset")
	}
	if hit, _, _ := c.Access(0, false); !hit {
		t.Error("contents should survive a stats reset")
	}
}

func TestMissRate(t *testing.T) {
	var s Stats
	if s.MissRate() != 0 {
		t.Error("idle miss rate should be 0")
	}
	s = Stats{Accesses: 10, Misses: 4}
	if s.MissRate() != 0.4 {
		t.Errorf("miss rate = %v", s.MissRate())
	}
}

// refLine and refCache are the reference model the packed Cache must
// match: the original layout, one 24-byte struct per way, with the same
// first-invalid-else-LRU fill rule.
type refLine struct {
	tag   uint64
	lru   uint64
	valid bool
	dirty bool
}

type refCache struct {
	lineShift uint
	sets      uint64
	ways      int
	lines     []refLine // sets * ways, set-major
	tick      uint64
	stats     Stats
}

func newRefCache(sizeBytes, ways, lineBytes int) *refCache {
	var shift uint
	for l := lineBytes; l > 1; l >>= 1 {
		shift++
	}
	sets := sizeBytes / (ways * lineBytes)
	return &refCache{lineShift: shift, sets: uint64(sets), ways: ways, lines: make([]refLine, sets*ways)}
}

func (c *refCache) set(addr uint64) ([]refLine, uint64) {
	blk := addr >> c.lineShift
	base := int(blk%c.sets) * c.ways
	return c.lines[base : base+c.ways], blk
}

func (c *refCache) Access(addr uint64, write bool) (hit bool, victim Victim, hasVictim bool) {
	c.stats.Accesses++
	c.tick++
	set, tag := c.set(addr)
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
	set[slot] = refLine{tag: tag, lru: c.tick, valid: true, dirty: write}
	return false, victim, hasVictim
}

func (c *refCache) Probe(addr uint64) bool {
	set, tag := c.set(addr)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			return true
		}
	}
	return false
}

func (c *refCache) Invalidate(addr uint64) (wasDirty bool) {
	set, tag := c.set(addr)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			wasDirty = set[i].dirty
			set[i] = refLine{}
			return wasDirty
		}
	}
	return false
}

func (c *refCache) Flush() (dirty int) {
	for i := range c.lines {
		if c.lines[i].valid && c.lines[i].dirty {
			dirty++
		}
		c.lines[i] = refLine{}
	}
	return dirty
}

// TestCacheMatchesReference drives the packed Cache and the reference
// model with the same seeded random operation sequence and compares
// every return value, victim and Stats after every operation. Addresses
// mostly fall in a few sets, with tags drawn from a pool a few times the
// associativity, so sets fill, hit, evict in LRU order and write back;
// the rest are uniform over a wide span to cover the modulo indexing of
// the non-power-of-two L3.
func TestCacheMatchesReference(t *testing.T) {
	geoms := []struct {
		name       string
		ways, sets int
	}{
		{"4way-128sets", 4, 128},
		{"16way-256sets", 16, 256},
		{"16way-12288sets", 16, 12288},
	}
	const lineBytes = 64
	for _, g := range geoms {
		for seed := uint64(1); seed <= 3; seed++ {
			size := g.ways * g.sets * lineBytes
			c := mustCache(t, size, g.ways, lineBytes)
			ref := newRefCache(size, g.ways, lineBytes)
			r := rand.New(rand.NewPCG(seed, uint64(g.sets)))
			hot := make([]uint64, 6)
			for i := range hot {
				hot[i] = r.Uint64N(uint64(g.sets))
			}
			addr := func() uint64 {
				if r.IntN(8) == 0 {
					return r.Uint64N(1 << 36)
				}
				set := hot[r.IntN(len(hot))]
				tag := r.Uint64N(uint64(3 * g.ways))
				return (tag*uint64(g.sets)+set)*lineBytes + r.Uint64N(lineBytes)
			}
			for op := 0; op < 40_000; op++ {
				var got, want any
				switch k := r.IntN(1000); {
				case k < 800:
					a, w := addr(), r.IntN(3) == 0
					h1, v1, hv1 := c.Access(a, w)
					h2, v2, hv2 := ref.Access(a, w)
					got, want = [3]any{h1, v1, hv1}, [3]any{h2, v2, hv2}
				case k < 900:
					a := addr()
					got, want = c.Probe(a), ref.Probe(a)
				case k < 998:
					a := addr()
					got, want = c.Invalidate(a), ref.Invalidate(a)
				case k < 999:
					got, want = c.Flush(), ref.Flush()
				default:
					c.ResetStats()
					ref.stats = Stats{}
				}
				if got != want {
					t.Fatalf("%s seed %d op %d: packed %v, reference %v", g.name, seed, op, got, want)
				}
				if c.Stats() != ref.stats {
					t.Fatalf("%s seed %d op %d: stats %+v, reference %+v", g.name, seed, op, c.Stats(), ref.stats)
				}
			}
			if st := c.Stats(); st.Hits == 0 || st.Writebacks == 0 {
				t.Fatalf("%s seed %d: sequence exercised too little: %+v", g.name, seed, st)
			}
		}
	}
}

// BenchmarkCacheAccess measures one level's Access in isolation, on
// line addresses from an LCG masked to a power-of-two span of lines.
// The L1 case's span is half a 32 KB 4-way cache, two lines per set,
// so every access after warm-up hits. The L3 cases' span is 16× the
// 16-way cache's capacity, so most accesses miss, scan the whole set
// and evict; 256 sets is a power of two, 12288 is the paper's L3.
func BenchmarkCacheAccess(b *testing.B) {
	cases := []struct {
		name       string
		ways, sets int
		spanLines  uint64 // power of two
	}{
		{"l1-hit", 4, 128, 256},
		{"l3-miss-256sets", 16, 256, 1 << 16},
		{"l3-miss-12288sets", 16, 12288, 1 << 22},
	}
	for _, bc := range cases {
		b.Run(bc.name, func(b *testing.B) {
			c, err := New("b", bc.ways*bc.sets*64, bc.ways, 64)
			if err != nil {
				b.Fatal(err)
			}
			var lcg uint64 = 1
			next := func() uint64 {
				lcg = lcg*6364136223846793005 + 1442695040888963407
				return (lcg >> 20) & (bc.spanLines - 1) << 6
			}
			for i := 0; i < 4*bc.ways*bc.sets; i++ {
				c.Access(next(), false)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Access(next(), i&3 == 0)
			}
		})
	}
}
