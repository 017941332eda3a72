package routing

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

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
	if len(p.got.ents) != len(p.want.seen) {
		p.t.Fatalf("step %d: %d entries after Seen(%+v, %v), the map holds %d", p.step, len(p.got.ents), k, now, len(p.want.seen))
	}
	if !slices.IsSortedFunc(p.got.ents, func(a, b dupEntry) int { return cmp.Compare(a.key, b.key) }) {
		p.t.Fatalf("step %d: entries out of order after Seen(%+v, %v)", p.step, k, now)
	}
	return got
}

// TestDupCacheMatchesMap: for random call streams the sorted store answers
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
		if cap(p.got.ents) < 64 && keys >= 256 {
			t.Fatalf("seed %d: the store has room for %d entries with %d live; the stream was meant to grow it", seed, cap(p.got.ents), len(p.got.ents))
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
		if room := cap(p.got.ents); room < 8<<3 {
			t.Fatalf("100 keys sit in room for %d, want at least three doublings of 8", room)
		}
		for i := 0; i < 100; i++ {
			if !p.seen(DupKey{Origin: netstack.NodeID(i % 7), Seq: uint64(i)}, 2) {
				t.Fatalf("key %d lost in a doubling", i)
			}
		}
		fresh := DupKey{Origin: 3, Seq: 1000}
		p.seen(fresh, 50)
		if len(p.got.ents) != 1 {
			t.Fatalf("%d entries after every entry expired, want the one new key", len(p.got.ents))
		}
		for i := 0; i < 100; i++ {
			p.seen(DupKey{Origin: netstack.NodeID(i % 7), Seq: uint64(i)}, 51)
		}
	})
	t.Run("a sweep that drops every other entry keeps the survivors findable", func(t *testing.T) {
		p := newDupPair(t, 10)
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
	t.Run("an out-of-order seq lands mid-slice", func(t *testing.T) {
		p := newDupPair(t, 10)
		for _, seq := range []uint64{10, 20, 30, 40} {
			p.seen(DupKey{Origin: 2, Seq: seq}, 1)
		}
		p.seen(DupKey{Origin: 2, Seq: 25}, 1)
		p.seen(DupKey{Origin: 1, Seq: 20}, 1) // same seq, lower origin: just before (2, 20)
		p.seen(DupKey{Origin: 2, Seq: 5}, 1)  // below the minimum
		want := []uint64{5<<32 | 2, 10<<32 | 2, 20<<32 | 1, 20<<32 | 2, 25<<32 | 2, 30<<32 | 2, 40<<32 | 2}
		var got []uint64
		for _, e := range p.got.ents {
			got = append(got, e.key)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("keys %x, want %x", got, want)
		}
		for _, seq := range []uint64{5, 10, 20, 25, 30, 40} {
			if !p.seen(DupKey{Origin: 2, Seq: seq}, 2) {
				t.Fatalf("seq %d lost after the mid-slice inserts", seq)
			}
		}
	})
	t.Run("broadcast and the lowest origin are ordinary keys", func(t *testing.T) {
		p := newDupPair(t, 10)
		for _, o := range []netstack.NodeID{math.MinInt32, netstack.Broadcast, 0, math.MaxInt32} {
			if p.seen(DupKey{Origin: o, Seq: 7}, 1) {
				t.Fatalf("origin %d's first copy reported seen", o)
			}
		}
		for _, o := range []netstack.NodeID{math.MinInt32, netstack.Broadcast, 0, math.MaxInt32} {
			if !p.seen(DupKey{Origin: o, Seq: 7}, 2) {
				t.Fatalf("origin %d's repeat reported fresh", o)
			}
		}
	})
	t.Run("seq 2^32-1 is accepted and 2^32 panics", func(t *testing.T) {
		p := newDupPair(t, 10)
		top := DupKey{Origin: netstack.Broadcast, Seq: math.MaxUint32}
		p.seen(DupKey{Origin: 0, Seq: 0}, 1)
		p.seen(top, 1)
		if !p.seen(top, 2) {
			t.Fatal("the largest seq was not remembered")
		}
		defer func() {
			if recover() == nil {
				t.Fatal("Seq 2^32 was accepted")
			}
		}()
		p.got.Seen(DupKey{Origin: 0, Seq: math.MaxUint32 + 1}, 3)
	})
}

// TestDupEntryIs16Bytes pins the unit every live key costs, a packed key
// and a time: a field added here is paid for by every cache of every node.
func TestDupEntryIs16Bytes(t *testing.T) {
	if got := unsafe.Sizeof(dupEntry{}); got != 16 {
		t.Fatalf("dupEntry is %d bytes, want 16", got)
	}
}

// A reception in a storm must not allocate: neither the repeat of the last
// key nor a first copy that fits the slice's capacity, appended past the
// maximum or inserted mid-slice.
func TestDupCacheSeenDoesNotAllocate(t *testing.T) {
	c := NewDupCache(30)
	k := DupKey{Origin: 3, Seq: 9}
	c.Seen(k, 1)
	if a := testing.AllocsPerRun(1000, func() { c.Seen(k, 1) }); a != 0 {
		t.Fatalf("a repeat key allocates %.1f objects per call", a)
	}
	for i := 0; i < 512; i++ {
		c.Seen(DupKey{Origin: 3, Seq: uint64(10_000 + 2*i)}, 1)
	}
	// 513 entries: the growth past 512 left room for well over 2×101 more
	room, odd, top := cap(c.ents), uint64(10_001), uint64(20_000)
	if room-len(c.ents) < 2*101 {
		t.Fatalf("%d entries in room for %d: the measurement would grow the slice", len(c.ents), room)
	}
	if a := testing.AllocsPerRun(100, func() { c.Seen(DupKey{Origin: 4, Seq: top}, 1); top++ }); a != 0 {
		t.Fatalf("a first copy past the maximum allocates %.1f objects per call", a)
	}
	if a := testing.AllocsPerRun(100, func() { c.Seen(DupKey{Origin: 4, Seq: odd}, 1); odd += 2 }); a != 0 {
		t.Fatalf("a first copy inserted mid-slice allocates %.1f objects per call", a)
	}
	if cap(c.ents) != room {
		t.Fatalf("the slice grew from room for %d to %d during the measurement", room, cap(c.ents))
	}
}

// FuzzDupCache drives the cache and the map it replaced with the same
// stream: each op is three bytes, an origin (one of six, the extremes
// included), a seq (below 0x80 as is, 0xff the largest seq there is, any
// other value repeats the key answered last) and a clock step of up to 2 s.
// The ttl is 0.25–16 s, so streams sweep, expire and refill.
func FuzzDupCache(f *testing.F) {
	f.Add(uint8(3), []byte{0, 1, 0, 1, 2, 10, 0, 0x80, 10, 2, 3, 40, 4, 0xff, 0, 5, 0, 200})
	f.Add(uint8(0), []byte{1, 9, 0, 1, 8, 0, 1, 7, 0, 2, 8, 255, 1, 9, 1, 1, 7, 255})
	f.Add(uint8(63), []byte{3, 0, 0, 3, 0x80, 0, 0, 0, 255, 0, 0x80, 255, 5, 4, 0})
	origins := [...]netstack.NodeID{math.MinInt32, netstack.Broadcast, 0, 1, 77, math.MaxInt32}
	f.Fuzz(func(t *testing.T, ttl uint8, ops []byte) {
		p := newDupPair(t, float64(ttl%64+1)/4)
		var k DupKey
		now := 0.0
		for i := 0; i+3 <= len(ops) && i < 3*1000; i += 3 {
			switch o, s := ops[i], ops[i+1]; {
			case s == 0xff:
				k = DupKey{Origin: origins[int(o)%len(origins)], Seq: math.MaxUint32}
			case s&0x80 == 0:
				k = DupKey{Origin: origins[int(o)%len(origins)], Seq: uint64(s)}
			}
			now += float64(ops[i+2]) / 128
			p.seen(k, now)
		}
	})
}

// BenchmarkDupCacheSeen times the three receptions a flood produces: the
// repeat of the key answered last (most of a storm), a first copy into a
// warm cache, and a first copy into one of 5,000 caches visited round-robin
// — the highway world, where each lookup finds its cache cold.
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
