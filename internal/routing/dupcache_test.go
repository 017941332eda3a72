package routing

import (
	"math/rand"
	"testing"

	"github.com/vanetlab/relroute/internal/netstack"
)

// mapDupCache is the map[DupKey]float64 cache DupCache replaced, kept as
// the reference the property test compares every answer against.
type mapDupCache struct {
	ttl     float64
	seen    map[DupKey]float64
	sweepAt float64
}

func (c *mapDupCache) Seen(k DupKey, now float64) bool {
	if now >= c.sweepAt {
		for key, at := range c.seen {
			if now-at > c.ttl {
				delete(c.seen, key)
			}
		}
		c.sweepAt = now + c.ttl
	}
	if _, ok := c.seen[k]; ok {
		return true
	}
	c.seen[k] = now
	return false
}

// dupPair drives a DupCache and the reference with the same calls.
type dupPair struct {
	t    *testing.T
	got  *DupCache
	want *mapDupCache
	step int
}

func newDupPair(t *testing.T, ttl float64) *dupPair {
	return &dupPair{t: t, got: NewDupCache(ttl), want: &mapDupCache{ttl: ttl, seen: map[DupKey]float64{}}}
}

func (p *dupPair) seen(k DupKey, now float64) bool {
	p.t.Helper()
	p.step++
	got, want := p.got.Seen(k, now), p.want.Seen(k, now)
	if got != want {
		p.t.Fatalf("step %d: Seen(%+v, %v) = %v, the map says %v", p.step, k, now, got, want)
	}
	if p.got.Len() != len(p.want.seen) {
		p.t.Fatalf("step %d: Len() = %d after Seen(%+v, %v), the map holds %d", p.step, p.got.Len(), k, now, len(p.want.seen))
	}
	return got
}

// TestDupCacheMatchesMap: for random call streams the flat table answers
// and counts exactly as the map did — repeats of the last key, small key
// spaces that collide and revisit, clocks that run backwards, sweeps that
// land on their instant, growth and a table swept empty.
func TestDupCacheMatchesMap(t *testing.T) {
	origins := []netstack.NodeID{netstack.Broadcast, 0, 1, 2, 77, 4999}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := newDupPair(t, 5)
		monotone := seed%2 == 0
		keys := 1 << (3 + seed%8) // 8 … 1024 distinct Seq values
		now := 0.0
		var last DupKey
		for i := 0; i < 6000; i++ {
			k := DupKey{Origin: origins[rng.Intn(len(origins))], Seq: uint64(rng.Intn(keys))}
			if rng.Intn(3) == 0 {
				k = last // the storm's repeat of the key answered last
			}
			last = k
			switch {
			case monotone:
				now += rng.Float64() * 0.05
			case rng.Intn(50) == 0:
				now = rng.Float64() * 40 // jump anywhere, backwards included
			default:
				now += rng.Float64()*0.1 - 0.03
			}
			p.seen(k, now)
		}
		if len(p.got.tab) < 64 && keys >= 256 {
			t.Fatalf("seed %d: table has %d slots for %d live keys; the stream was meant to grow it", seed, len(p.got.tab), p.got.Len())
		}
	}
}

// TestDupCacheEdges pins the cases a random stream only brushes.
func TestDupCacheEdges(t *testing.T) {
	t.Run("age equal to the ttl on a sweep instant survives", func(t *testing.T) {
		p := newDupPair(t, 10)
		a := DupKey{Origin: 0, Seq: 0}
		p.seen(a, 0)  // first call sweeps: next sweep at 10
		p.seen(a, 10) // sweeps at exactly now-at == ttl: kept, so seen
		if !p.seen(a, 15) {
			t.Fatal("an entry exactly ttl old was swept")
		}
		p.seen(DupKey{Origin: 1, Seq: 1}, 20.5) // next sweep: a is 20.5 old
		if p.seen(a, 20.5) {
			t.Fatal("an entry older than the ttl outlived the sweep")
		}
	})
	t.Run("the last key is forgotten when its sweep is due", func(t *testing.T) {
		p := newDupPair(t, 10)
		a := DupKey{Origin: netstack.Broadcast, Seq: 0}
		p.seen(a, 0)
		p.seen(a, 1)
		if p.seen(a, 11.5) {
			t.Fatal("the last-key check answered for an entry its own call swept")
		}
	})
	t.Run("three doublings, then a sweep that empties the table", func(t *testing.T) {
		p := newDupPair(t, 10)
		for i := 0; i < 100; i++ {
			p.seen(DupKey{Origin: netstack.NodeID(i % 7), Seq: uint64(i)}, 1)
		}
		if slots := len(p.got.tab); slots < 8<<3 {
			t.Fatalf("100 keys sit in %d slots, want at least three doublings of 8", slots)
		}
		for i := 0; i < 100; i++ {
			if !p.seen(DupKey{Origin: netstack.NodeID(i % 7), Seq: uint64(i)}, 2) {
				t.Fatalf("key %d lost in a doubling", i)
			}
		}
		fresh := DupKey{Origin: 3, Seq: 1000}
		p.seen(fresh, 50)
		if p.got.Len() != 1 {
			t.Fatalf("Len() = %d after every entry expired, want the one new key", p.got.Len())
		}
		for i := 0; i < 100; i++ {
			p.seen(DupKey{Origin: netstack.NodeID(i % 7), Seq: uint64(i)}, 51)
		}
	})
	t.Run("a sweep inside full probe runs keeps every survivor reachable", func(t *testing.T) {
		p := newDupPair(t, 10)
		// alternate old and young entries so removals shift survivors, at a
		// load just under the growth threshold where runs are longest
		for i := 0; i < 95; i++ {
			at := 0.0
			if i%2 == 1 {
				at = 9
			}
			p.seen(DupKey{Origin: 5, Seq: uint64(i)}, at)
		}
		p.seen(DupKey{Origin: 5, Seq: 1}, 12) // sweep: the even keys are 12 old
		for i := 0; i < 95; i++ {
			if got := p.seen(DupKey{Origin: 5, Seq: uint64(i)}, 12); got != (i%2 == 1) {
				t.Fatalf("key %d: Seen = %v after the sweep", i, got)
			}
		}
	})
}

// A reception in a storm must not allocate: neither the repeat of the last
// key nor a first copy that fits the table.
func TestDupCacheSeenDoesNotAllocate(t *testing.T) {
	c := NewDupCache(30)
	k := DupKey{Origin: 3, Seq: 9}
	c.Seen(k, 1)
	if a := testing.AllocsPerRun(1000, func() { c.Seen(k, 1) }); a != 0 {
		t.Fatalf("a repeat key allocates %.1f objects per call", a)
	}
	for i := 0; i < 1000; i++ {
		c.Seen(DupKey{Origin: 3, Seq: uint64(100 + i)}, 1)
	}
	// 1,001 entries in 2,048 slots: the next 500 inserts stay under ¾ load
	slots, seq := len(c.tab), uint64(5000)
	if a := testing.AllocsPerRun(400, func() { c.Seen(DupKey{Origin: 4, Seq: seq}, 1); seq++ }); a != 0 {
		t.Fatalf("a first copy allocates %.1f objects per call", a)
	}
	if len(c.tab) != slots {
		t.Fatalf("the table grew from %d to %d slots during the measurement", slots, len(c.tab))
	}
}

// BenchmarkDupCacheSeen times the three receptions a flood produces: the
// repeat of the key answered last (most of a storm), a first copy into a
// warm table, and a first copy into one of 5,000 caches visited round-robin
// — the highway world, where each lookup finds its table cold.
func BenchmarkDupCacheSeen(b *testing.B) {
	b.Run("repeat", func(b *testing.B) {
		c := NewDupCache(30)
		k := DupKey{Origin: 3, Seq: 9}
		c.Seen(k, 1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if !c.Seen(k, 1) {
				b.Fatal("repeat key not seen")
			}
		}
	})
	b.Run("first", func(b *testing.B) {
		c := NewDupCache(30)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// 200 live keys per 30 s window, as a highway node holds
			if c.Seen(DupKey{Origin: netstack.NodeID(i % 50), Seq: uint64(i)}, float64(i)*0.15) {
				b.Fatal("fresh key reported seen")
			}
		}
	})
	b.Run("cold-5000-caches", func(b *testing.B) {
		caches := make([]*DupCache, 5000)
		for i := range caches {
			caches[i] = NewDupCache(30)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			round := i / len(caches)
			if caches[i%len(caches)].Seen(DupKey{Origin: netstack.NodeID(round % 50), Seq: uint64(round)}, float64(round)*0.15) {
				b.Fatal("fresh key reported seen")
			}
		}
	})
}
