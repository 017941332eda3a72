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
	if c.Len() != 2 {
		t.Fatalf("len = %d", c.Len())
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
	tb := NewTable()
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
	tb := NewTable()
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
	tb := NewTable()
	now := 0.0
	for i := 0; i < 1000; i++ {
		dst := netstack.NodeID(i)
		tb.Upsert(Route{Dst: dst, NextHop: 1, Expiry: now + 5, Valid: true})
		tb.InvalidateVia(1) // the destination departed
		now += 1
		tb.Lookup(dst, now) // any time-bearing access drives the sweep
	}
	// 1000 destinations died over 1000 s; with 30 s retention and a sweep
	// per retention period, the table holds at most ~2 windows of dead
	// entries at any moment
	if tb.Len() > 100 {
		t.Fatalf("table grew to %d entries; sweep not collecting", tb.Len())
	}
	if got := tb.Destinations(now); len(got) != 0 {
		t.Fatalf("Destinations = %v, want none (everything invalidated)", got)
	}
}

func TestTableSweepSparesLiveAndRecentRoutes(t *testing.T) {
	tb := NewTable()
	tb.Upsert(Route{Dst: 1, NextHop: 2, Valid: true})              // alive forever
	tb.Upsert(Route{Dst: 2, NextHop: 2, Expiry: 200, Valid: true}) // alive until 200
	tb.Upsert(Route{Dst: 3, NextHop: 3, Valid: true})
	// consulted every 0.5 s, the table sweeps at 0, 30 and 60; dst 3 dies
	// at 29.5, so the sweep at 30 finds it dead 0.5 s and the one at 60
	// dead 30.5 s, past the 30 s retention
	for now := 0.0; now <= 60; now += 0.5 {
		tb.Lookup(0, now)
		if now == 29.5 {
			tb.InvalidateVia(3)
		}
		if now == 59.5 && tb.Len() != 3 {
			t.Fatalf("entry dead for 30 s collected early: len=%d", tb.Len())
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
	tb := NewTable()
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
	tb := NewTable()
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

func TestTableInvalidate(t *testing.T) {
	tb := NewTable()
	tb.Upsert(Route{Dst: 1, NextHop: 10, Valid: true})
	tb.Upsert(Route{Dst: 2, NextHop: 10, Valid: true})
	tb.Upsert(Route{Dst: 3, NextHop: 11, Valid: true})
	broken := tb.InvalidateVia(10)
	if len(broken) != 2 || broken[0] != 1 || broken[1] != 2 {
		t.Fatalf("InvalidateVia = %v", broken)
	}
	if again := tb.InvalidateVia(10); len(again) != 0 {
		t.Fatalf("second InvalidateVia = %v, want none", again)
	}
	dsts := tb.Destinations(0)
	if len(dsts) != 1 || dsts[0] != 3 {
		t.Fatalf("destinations = %v", dsts)
	}
	if tb.Len() != 3 {
		t.Fatalf("len = %d", tb.Len())
	}
}

func TestPendingQueue(t *testing.T) {
	q := NewPendingQueue()
	mk := func(created float64) *netstack.Packet {
		return &netstack.Packet{Created: created}
	}
	for i := 0; i < 16; i++ { // created every 0.25 s from 0
		if ev := q.Push(1, mk(float64(i)/4)); ev != nil {
			t.Fatalf("eviction at push %d, below the cap of 16", i+1)
		}
	}
	ev := q.Push(1, mk(4)) // cap 16: oldest evicted
	if ev == nil || ev.Created != 0 {
		t.Fatalf("evicted = %+v", ev)
	}
	if !q.Waiting(1) || q.Waiting(2) {
		t.Fatal("Waiting wrong")
	}
	if q.Len() != 16 {
		t.Fatalf("len = %d", q.Len())
	}
	// at 10.5 the packet created at 0.25 has waited past 10 s; the one
	// created at 0.5 has waited exactly 10 s and is still fresh
	fresh, expired := q.PopAll(1, 10.5)
	if len(fresh) != 15 || len(expired) != 1 || expired[0].Created != 0.25 {
		t.Fatalf("fresh=%d expired=%d", len(fresh), len(expired))
	}
	if q.Waiting(1) {
		t.Fatal("queue not drained")
	}
}
