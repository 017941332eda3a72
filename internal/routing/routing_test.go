package routing

import (
	"testing"

	"github.com/vanetlab/relroute/internal/netstack"
)

func TestDupCache(t *testing.T) {
	c := NewDupCache(10)
	k := DupKey{Origin: 1, Seq: 7}
	if c.Seen(k, 0) {
		t.Fatal("fresh key reported seen")
	}
	if !c.Seen(k, 1) {
		t.Fatal("repeated key not seen")
	}
	if c.Seen(DupKey{Origin: 2, Seq: 7}, 1) {
		t.Fatal("different origin collided")
	}
	if c.Seen(DupKey{Origin: 1, Seq: 8}, 1) {
		t.Fatal("different seq collided")
	}
}

func TestDupCacheExpiry(t *testing.T) {
	c := NewDupCache(5)
	c.Seen(DupKey{Origin: 1, Seq: 1}, 0)
	// after ttl passes and a sweep triggers, the key is forgotten
	if c.Seen(DupKey{Origin: 9, Seq: 9}, 11) {
		t.Fatal("sweep-trigger key reported seen")
	}
	if c.Seen(DupKey{Origin: 1, Seq: 1}, 11.5) {
		t.Fatal("expired key still present after sweep")
	}
	if len(c.ents) != 2 {
		t.Fatalf("len = %d", len(c.ents))
	}
}

func TestSeqNewer(t *testing.T) {
	const max32 = 4294967295
	tests := []struct {
		a, b uint32
		want bool
	}{
		{2, 1, true},
		{1, 2, false},
		{5, 5, false},
		{0, max32, true}, // wraparound: 0 is fresher than max
		{max32, 0, false},
		// the circular comparison holds across the whole wrap window:
		// anything within half the space ahead is newer
		{100, max32 - 100, true},
		{max32 - 100, 100, false},
		{max32, max32 - 1, true},
		{max32 - 1, max32, false},
		{0, 0, false},
		{max32, max32, false},
		// exactly half the space apart: int32(a−b) is MinInt32 (negative),
		// so neither direction reports newer-than in that direction
		{1 << 31, 0, false},
		// ... and one past half flips the comparison
		{1<<31 + 1, 0, false},
		{0, 1<<31 + 1, true},
	}
	for _, tc := range tests {
		if got := SeqNewer(tc.a, tc.b); got != tc.want {
			t.Errorf("SeqNewer(%d,%d) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
	// antisymmetry everywhere except the ambiguous half-distance point
	for _, d := range []uint32{1, 2, 1000, 1<<31 - 1} {
		a, b := uint32(7)+d, uint32(7)
		if !SeqNewer(a, b) || SeqNewer(b, a) {
			t.Errorf("antisymmetry broken at distance %d", d)
		}
	}
}

func TestTableLookup(t *testing.T) {
	tb := new(Table)
	if _, ok := tb.Lookup(5, 0); ok {
		t.Fatal("lookup on empty table")
	}
	tb.Upsert(Route{Dst: 5, NextHop: 2, Hops: 3, Expiry: 10, Valid: true})
	rt, ok := tb.Lookup(5, 5)
	if !ok || rt.NextHop != 2 {
		t.Fatalf("lookup = %+v, %v", rt, ok)
	}
	// expired routes turn invalid on lookup
	if _, ok := tb.Lookup(5, 11); ok {
		t.Fatal("expired route returned")
	}
	if rt, _ := tb.Get(5); rt.Valid {
		t.Fatal("expired route still marked valid")
	}
	// zero expiry means no expiry
	tb.Upsert(Route{Dst: 6, NextHop: 2, Valid: true})
	if _, ok := tb.Lookup(6, 1e9); !ok {
		t.Fatal("no-expiry route expired")
	}
}

func TestTableLookupExpiryEdges(t *testing.T) {
	tb := new(Table)
	tb.Upsert(Route{Dst: 1, NextHop: 2, Expiry: 10, Valid: true})
	// Expiry == now is inclusive: the route is still usable at the instant
	// it expires (Lookup invalidates only strictly past it)
	if _, ok := tb.Lookup(1, 10); !ok {
		t.Fatal("route invalid at Expiry == now")
	}
	if rt, _ := tb.Get(1); !rt.Valid {
		t.Fatal("boundary lookup invalidated the route")
	}
	// the first instant strictly past Expiry kills it
	if _, ok := tb.Lookup(1, 10.000001); ok {
		t.Fatal("route survived past Expiry")
	}
	if rt, _ := tb.Get(1); rt.Valid {
		t.Fatal("expired route still marked valid")
	}
	// Expiry == 0 never expires, even at enormous now
	tb.Upsert(Route{Dst: 2, NextHop: 3, Expiry: 0, Valid: true})
	for _, now := range []float64{0, 1, 1e12} {
		if _, ok := tb.Lookup(2, now); !ok {
			t.Fatalf("zero-expiry route expired at now=%g", now)
		}
	}
	// an invalid route is never returned regardless of expiry fields
	tb.Upsert(Route{Dst: 3, NextHop: 4, Expiry: 0, Valid: false})
	if _, ok := tb.Lookup(3, 0); ok {
		t.Fatal("invalid route returned")
	}
}

// TestTableSweepBoundsGrowth is the churn regression: destinations that
// keep appearing and dying (the open-world pattern — departed vehicles
// linger as invalidated routes) must not grow the table forever. The lazy
// sweep driven by Lookup deletes entries dead longer than the retention.
func TestTableSweepBoundsGrowth(t *testing.T) {
	tb := new(Table)
	now := 0.0
	for i := 0; i < 1000; i++ {
		dst := netstack.NodeID(i)
		tb.Upsert(Route{Dst: dst, NextHop: 1, Expiry: now + 5, Valid: true})
		tb.InvalidateVia(1, nil) // the destination departed
		now += 1
		tb.Lookup(dst, now) // any time-bearing access drives the sweep
	}
	// 1000 destinations died over 1000 s; with 30 s retention and a sweep
	// per retention period, the table holds at most ~2 windows of dead
	// entries at any moment
	if len(tb.routes) > 100 {
		t.Fatalf("table grew to %d entries; sweep not collecting", len(tb.routes))
	}
	if got := tb.AppendDestinations(nil, now); len(got) != 0 {
		t.Fatalf("AppendDestinations = %v, want none (everything invalidated)", got)
	}
}

func TestTableSweepSparesLiveAndRecentRoutes(t *testing.T) {
	tb := new(Table)
	tb.Upsert(Route{Dst: 1, NextHop: 2, Valid: true})              // alive forever
	tb.Upsert(Route{Dst: 2, NextHop: 2, Expiry: 200, Valid: true}) // alive until 200
	tb.Upsert(Route{Dst: 3, NextHop: 3, Valid: true})
	// consulted every 0.5 s, the table sweeps at 0, 30 and 60; dst 3 dies
	// at 29.5, so the sweep at 30 finds it dead 0.5 s and the one at 60
	// dead 30.5 s, past the 30 s retention
	for now := 0.0; now <= 60; now += 0.5 {
		tb.Lookup(0, now)
		if now == 29.5 {
			tb.InvalidateVia(3, nil)
		}
		if now == 59.5 && len(tb.routes) != 3 {
			t.Fatalf("entry dead for 30 s collected early: len=%d", len(tb.routes))
		}
	}
	if _, ok := tb.Get(3); ok {
		t.Fatal("dead entry outlived retention")
	}
	if _, ok := tb.Get(1); !ok {
		t.Fatal("no-expiry live route collected")
	}
	if _, ok := tb.Get(2); !ok {
		t.Fatal("live route collected")
	}
}

// TestTableSweepGraceFromDeath pins the DELETE_PERIOD semantics: the
// retention window of a naturally-expired route runs from its Expiry (the
// moment it died), not from its last table write — an entry that sat
// untouched while alive still gets the full grace window dead.
func TestTableSweepGraceFromDeath(t *testing.T) {
	tb := new(Table)
	tb.Lookup(0, 0)                                               // arm the sweep clock
	tb.Upsert(Route{Dst: 1, NextHop: 2, Expiry: 40, Valid: true}) // touched at 0
	// dead only 5 s at the t=45 sweep: must survive
	tb.Lookup(0, 45)
	if _, ok := tb.Get(1); !ok {
		t.Fatal("expired route collected with zero grace")
	}
	// well past Expiry+retention: collected
	tb.Lookup(0, 101)
	if _, ok := tb.Get(1); ok {
		t.Fatal("dead entry outlived Expiry + retention")
	}
}

// TestTableSweepGraceAfterDirectMutation covers the DSDV/AODV pattern of
// killing a route by writing Valid = false through the Get pointer: death
// is stamped by the first sweep that observes it, so the entry still gets
// a full grace window measured from that observation.
func TestTableSweepGraceAfterDirectMutation(t *testing.T) {
	tb := new(Table)
	tb.Lookup(0, 0) // arm the sweep clock
	tb.Upsert(Route{Dst: 1, NextHop: 2, Seq: 7, Valid: true})
	rt, _ := tb.Get(1)
	// protocol kills the route long after its last table write
	tb.Lookup(0, 200)
	rt.Valid = false
	// first sweep past the kill observes the death; the entry must
	// survive it with its Seq intact
	tb.Lookup(0, 240)
	if got, ok := tb.Get(1); !ok || got.Seq != 7 {
		t.Fatal("directly-killed route collected with zero grace")
	}
	// a full retention after the observing sweep it is collected
	tb.Lookup(0, 280)
	tb.Lookup(0, 320)
	if _, ok := tb.Get(1); ok {
		t.Fatal("dead entry outlived its grace window")
	}
}

// TestTableUpsertInPlace pins Upsert's overwrite: a replacement writes
// the existing entry, allocating nothing and keeping the pointer Get
// returns, and it restamps the entry's death as an insert would. A dead
// route written over a live one dies at the table's last observed time,
// so the sweep collects it 30 s after that; a live route written over a
// dead one is alive, and the sweep that would have collected the dead one
// keeps it.
func TestTableUpsertInPlace(t *testing.T) {
	t.Run("replace", func(t *testing.T) {
		tb := new(Table)
		first := tb.Upsert(Route{Dst: 1, NextHop: 2, Hops: 3, Valid: true})
		var got *Route
		hop := netstack.NodeID(3)
		if allocs := testing.AllocsPerRun(100, func() {
			got = tb.Upsert(Route{Dst: 1, NextHop: hop, Hops: 2, Valid: true})
			hop++
		}); allocs != 0 {
			t.Fatalf("replacing an entry allocates %v objects", allocs)
		}
		if got != first {
			t.Fatal("the replacement moved the entry")
		}
		if rt, _ := tb.Get(1); rt != first || rt.NextHop != hop-1 || rt.Hops != 2 {
			t.Fatalf("Get = %p %+v, want %p written in place", rt, rt, first)
		}
	})
	t.Run("dead-over-live", func(t *testing.T) {
		tb := new(Table)
		tb.Lookup(0, 10) // sweeps at 10, next at 40
		tb.Upsert(Route{Dst: 1, NextHop: 2, Seq: 4, Valid: true})
		tb.Upsert(Route{Dst: 1, NextHop: 2, Seq: 5, Valid: false}) // dead at 10
		tb.Lookup(0, 40)                                           // dead 30 s: kept
		if rt, ok := tb.Get(1); !ok || rt.Seq != 5 {
			t.Fatal("dead route collected within its grace window")
		}
		tb.Lookup(0, 70) // dead 60 s
		if _, ok := tb.Get(1); ok {
			t.Fatal("dead route outlived 30 s from the time it was written")
		}
	})
	t.Run("live-over-dead", func(t *testing.T) {
		tb := new(Table)
		tb.Lookup(0, 10)                                           // sweeps at 10, next at 40
		tb.Upsert(Route{Dst: 1, NextHop: 2, Seq: 4, Valid: false}) // dead at 10
		tb.Upsert(Route{Dst: 1, NextHop: 3, Seq: 6, Valid: true})
		tb.Lookup(0, 41) // the dead route's grace ran out at 40
		if rt, ok := tb.Lookup(1, 41); !ok || rt.NextHop != 3 || rt.Seq != 6 {
			t.Fatal("live route written over a dead one was collected")
		}
	})
}

// TestTableEntriesStayPut: new entries are carved from chunks the table
// allocates, and an entry never moves and is never reused. So a pointer Get
// handed out still reads its own destination after 100 more inserts and a
// retention sweep, whether the sweep kept its entry or collected it, and 64
// new destinations cost a handful of objects, not one each.
func TestTableEntriesStayPut(t *testing.T) {
	tb := new(Table)
	tb.Lookup(0, 1)
	var held []*Route
	for d := netstack.NodeID(0); d < 10; d++ {
		// the odd destinations are inserted dead at 1: the sweep at 40
		// collects them
		rt := tb.Upsert(Route{Dst: d, NextHop: 100 + d, Hops: int(d), Valid: d%2 == 0})
		if got, _ := tb.Get(d); got != rt {
			t.Fatalf("Get(%d) is not the entry Upsert wrote", d)
		}
		held = append(held, rt)
	}
	for d := netstack.NodeID(10); d < 110; d++ {
		tb.Upsert(Route{Dst: d, NextHop: 1, Valid: true})
	}
	tb.Lookup(0, 40)
	for d, rt := range held {
		if rt.Dst != netstack.NodeID(d) || rt.NextHop != 100+netstack.NodeID(d) || rt.Hops != d {
			t.Fatalf("the entry handed out for %d now reads %+v", d, *rt)
		}
		if got, ok := tb.Get(netstack.NodeID(d)); ok != (d%2 == 0) || ok && got != rt {
			t.Fatalf("after the sweep Get(%d) = %p, %v; want the entry handed out while it lives", d, got, ok)
		}
	}
	// what the index alone costs: the map growing to 64 keys
	var same Route
	index := testing.AllocsPerRun(10, func() {
		m := make(map[netstack.NodeID]*Route)
		for d := netstack.NodeID(0); d < 64; d++ {
			m[d] = &same
		}
	})
	n := testing.AllocsPerRun(10, func() {
		tb := new(Table)
		for d := netstack.NodeID(0); d < 64; d++ {
			tb.Upsert(Route{Dst: d, NextHop: 1, Valid: true})
		}
	}) - index
	t.Logf("64 new destinations: %v objects besides the map's", n)
	if n > 10 {
		t.Fatalf("64 new destinations cost %v objects besides the map's, want at most 10", n)
	}
}

func TestTableInvalidate(t *testing.T) {
	tb := new(Table)
	tb.Upsert(Route{Dst: 1, NextHop: 10, Valid: true})
	tb.Upsert(Route{Dst: 2, NextHop: 10, Valid: true})
	tb.Upsert(Route{Dst: 3, NextHop: 11, Valid: true})
	// both append after what the caller's buffer holds, and sort only that
	buf := make([]netstack.NodeID, 1, 8)
	buf[0] = 99
	broken := tb.InvalidateVia(10, buf)
	if len(broken) != 3 || broken[0] != 99 || broken[1] != 1 || broken[2] != 2 || &broken[0] != &buf[0] {
		t.Fatalf("InvalidateVia = %v, want [99 1 2] in the caller's buffer", broken)
	}
	if again := tb.InvalidateVia(10, buf[:0]); len(again) != 0 {
		t.Fatalf("second InvalidateVia = %v, want none", again)
	}
	dsts := tb.AppendDestinations(buf[:1], 0)
	if len(dsts) != 2 || dsts[0] != 99 || dsts[1] != 3 {
		t.Fatalf("destinations = %v, want [99 3]", dsts)
	}
	if len(tb.routes) != 3 {
		t.Fatalf("len = %d", len(tb.routes))
	}
}

// BenchmarkTableUpsert times the two writes a table-driven router makes:
// a fresher route to a destination the table holds, written in place, and
// a route to a new destination, which carves its entry from the table's
// chunk (the map keeps its buckets across the clear every 1,024 inserts).
func BenchmarkTableUpsert(b *testing.B) {
	b.Run("replace", func(b *testing.B) {
		tb := new(Table)
		tb.Upsert(Route{Dst: 1, NextHop: 2, Valid: true})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tb.Upsert(Route{Dst: 1, NextHop: 2, Hops: i % 8, Seq: uint32(i), Valid: true})
		}
	})
	b.Run("insert", func(b *testing.B) {
		const dsts = 1024
		tb := new(Table)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%dsts == 0 {
				clear(tb.routes)
			}
			tb.Upsert(Route{Dst: netstack.NodeID(i % dsts), NextHop: 2, Valid: true})
		}
	})
}
