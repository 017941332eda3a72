package linkstate

import (
	"slices"
	"testing"
	"unsafe"

	"github.com/vanetlab/relroute/internal/geom"
)

// Steady-state allocation pins: the epoch-memoized lifetime cache sits on
// every routing decision's hot path, so once the monitor's entries exist,
// neither same-epoch queries nor post-epoch recomputation may allocate.

func warmMonitor() *Monitor {
	m := NewMonitor(2.5, 250, nil)
	for id := NodeID(0); id < 32; id++ {
		m.Update(id, Vehicle, geom.V(float64(id)*20, 0), geom.V(5, 0), -60, 0)
	}
	// materialize every memo once
	obs := Observer{Pos: geom.V(300, 10), Vel: geom.V(-5, 0), Now: 0.5, Epoch: 1}
	for id := NodeID(0); id < 32; id++ {
		m.State(id, obs)
	}
	return m
}

func TestStateAllocFree(t *testing.T) {
	m := warmMonitor()
	obs := Observer{Pos: geom.V(300, 10), Vel: geom.V(-5, 0), Now: 0.7, Epoch: 1}
	allocs := testing.AllocsPerRun(200, func() {
		for id := NodeID(0); id < 32; id++ {
			m.State(id, obs)
		}
	})
	if allocs != 0 {
		t.Fatalf("same-epoch State allocated %v times per run, want 0", allocs)
	}
}

func TestEpochRecomputeAllocFree(t *testing.T) {
	m := warmMonitor()
	obs := Observer{Pos: geom.V(300, 10), Vel: geom.V(-5, 0), Now: 0.7, Epoch: 1}
	allocs := testing.AllocsPerRun(100, func() {
		obs.Epoch++ // every pass invalidates all 32 memos
		obs.Pos.X -= 0.5
		for id := NodeID(0); id < 32; id++ {
			m.State(id, obs)
		}
	})
	if allocs != 0 {
		t.Fatalf("post-epoch recompute allocated %v times per run, want 0", allocs)
	}
}

func TestFeedbackAllocFree(t *testing.T) {
	m := warmMonitor()
	allocs := testing.AllocsPerRun(200, func() {
		for id := NodeID(0); id < 32; id++ {
			m.RecordReceived(id)
			m.RecordSendFailed(id)
		}
	})
	if allocs != 0 {
		t.Fatalf("feedback recording allocated %v times per run, want 0", allocs)
	}
}

// The beacon and tick paths of the flat table: recording a beacon, folding
// a full inbox into known links, reading with nothing to fold and sweeping
// a table with nothing stale touch no allocator, and an ordered read
// allocates exactly the slice it returns — or nothing, into a buffer the
// caller owns.

// TestTableRecordSizes pins what a fold pulls through the cache: two lines
// per link, one per unread beacon, and four keys to a line on the
// bisection's path.
func TestTableRecordSizes(t *testing.T) {
	if got := unsafe.Sizeof(entry{}); got > 128 {
		t.Errorf("entry is %d bytes, want at most 128", got)
	}
	if got := unsafe.Sizeof(key{}); got > 16 {
		t.Errorf("a key is %d bytes, want at most 16", got)
	}
	if got := unsafe.Sizeof(heard{}); got > 64 {
		t.Errorf("an inbox record is %d bytes, want at most 64", got)
	}
}

func TestUpdateRefreshAllocFree(t *testing.T) {
	m := warmMonitor()
	now := 1.0
	folded := false
	allocs := testing.AllocsPerRun(200, func() {
		now += 0.1
		// one more beacon than the inbox holds: every run crosses a fold
		for id := NodeID(0); id <= inboxCap; id++ {
			m.Update(id, Vehicle, geom.V(float64(id)*20, 0), geom.V(5, 0), -61, now)
			folded = folded || len(m.inbox) == 1
		}
	})
	if allocs != 0 || !folded {
		t.Fatalf("refresh Update allocated %v times per run (folded: %v), want 0 across a fold", allocs, folded)
	}
	m.Len() // fold what is left
	snap := make([]LinkState, 0, m.Len())
	if allocs := testing.AllocsPerRun(200, func() { snap = m.AppendSnapshot(snap[:0]) }); allocs != 0 || snap[3].ID != 3 || snap[3].Beacons < 200 {
		t.Fatalf("AppendSnapshot with nothing to fold: %v allocs, entry %+v; want 0 and every beacon counted", allocs, snap[3])
	}
}

func TestExpireAllocs(t *testing.T) {
	m := warmMonitor()
	sweeps := m.FullSweeps()
	hear := func(id NodeID, now float64) {
		m.Update(id, Vehicle, geom.V(float64(id)*20, 0), geom.V(5, 0), -60, now)
	}
	// nothing stale: first answered by the oldest-entry bound — which leaves
	// the beacons it finds unread where they are — then, the bound left
	// stale-low by a refresh, by a sweep that finds nothing
	hear(1, 0.6)
	hear(2, 0.6)
	allocs := testing.AllocsPerRun(100, func() { m.Expire(1) })
	if allocs != 0 || m.FullSweeps() != sweeps || len(m.inbox) != 2 {
		t.Fatalf("short-circuited Expire: %v allocs, %d sweeps, %d beacons unread; want 0, none and 2",
			allocs, m.FullSweeps()-sweeps, len(m.inbox))
	}
	for id := NodeID(1); id < 32; id++ {
		hear(id, 2.4)
	}
	allocs = testing.AllocsPerRun(100, func() {
		hear(0, 0)   // pulls the bound down …
		hear(0, 2.4) // … and the refresh leaves it there
		if gone := m.Expire(2.6); gone != nil {
			t.Fatalf("expired %v from a fresh table", gone)
		}
	})
	if allocs != 0 || m.FullSweeps() != sweeps+101 {
		t.Fatalf("empty-handed sweep: %v allocs, %d sweeps; want 0 and 101", allocs, m.FullSweeps()-sweeps)
	}
	// one link goes stale per run and is heard again into its freed entry:
	// the only allocation is the slice of expired IDs handed to the caller
	now := 2.4
	allocs = testing.AllocsPerRun(100, func() {
		now += 1
		for id := NodeID(1); id < 32; id++ {
			hear(id, now)
		}
		if gone := m.Expire(now + 2); len(gone) != 1 || gone[0] != 0 {
			t.Fatalf("expired %v, want [0]", gone)
		}
		hear(0, now-1)
	})
	if allocs != 1 {
		t.Fatalf("compacting Expire allocated %v times per run, want 1 (the returned IDs)", allocs)
	}
	// the same into a buffer the caller reuses, as the world's tick does:
	// nothing at all
	var buf []NodeID
	allocs = testing.AllocsPerRun(100, func() {
		now += 1
		for id := NodeID(1); id < 32; id++ {
			hear(id, now)
		}
		if buf = m.AppendExpired(buf[:0], now+2); len(buf) != 1 || buf[0] != 0 {
			t.Fatalf("expired %v, want [0]", buf)
		}
		hear(0, now-1)
	})
	if allocs != 0 {
		t.Fatalf("compacting AppendExpired into a reused buffer allocated %v times per run, want 0", allocs)
	}
}

// TestTableGrowsFromInboxes hears 40 distinct neighbours, folded an
// inbox at a time, the way a node entering a dense road fills its table:
// the keys grow at most twice and end with room for at most 48 links, each
// link takes one entry from the store, and no entry is copied. The table
// allocates nothing itself: every allocation is a chunk of its store — of
// entries, of inbox records, of key arrays and of free-list nodes, as many
// as the carve rule makes for what the table took.
func TestTableGrowsFromInboxes(t *testing.T) {
	const links, runs = 40, 10
	est := MustNew("", Config{Range: 250})
	stores := make([]Store, runs+1) // AllocsPerRun runs once more to warm up
	var s *Store
	var m Monitor
	var g growths
	allocs := testing.AllocsPerRun(runs, func() {
		s, stores = &stores[0], stores[1:]
		m, g = s.Monitor(2.5, 250, est), growths{caps: g.caps[:0]}
		for id := NodeID(0); id < links; id++ {
			c := cap(m.keys)
			m.Update(id, Vehicle, geom.V(float64(id)*20, 0), geom.V(5, 0), -60, 0.01*float64(id))
			g.note(c, &m)
		}
		c := cap(m.keys)
		m.Len()
		g.note(c, &m)
	})
	grown, chunks := g.caps, storeChunks(links, 1, g)
	if m.n != links || len(grown) > 2 || cap(m.keys) > 48 || allocs != float64(chunks) {
		t.Fatalf("%d links in key growths to %v with %v allocations, want %d links, at most 2 growths to 48 and %d chunks",
			m.n, grown, allocs, links, chunks)
	}
	if s.carvedEntries != links || s.carvedRecords != inboxCap || s.carvedKeys != sum(grown) {
		t.Fatalf("the store carved %d entries, %d inbox records and %d keys, want %d, %d and %d",
			s.carvedEntries, s.carvedRecords, s.carvedKeys, links, inboxCap, sum(grown))
	}
}

// TestManyTablesAllocateKeysAndChunks fills 100 tables on one store with
// 40 links each, their beacons interleaved as a road's are: the only
// allocations are the store's chunks, as many as its rule makes for 4,000
// entries, 100 inboxes, every key array the growths carved and a free-list
// node for every array they outgrew.
func TestManyTablesAllocateKeysAndChunks(t *testing.T) {
	const tables, links = 100, 40
	est := MustNew("", Config{Range: 250})
	stores := make([]Store, 2) // AllocsPerRun runs once more to warm up
	mons := make([]Monitor, 2*tables)
	var s *Store
	var g growths
	allocs := testing.AllocsPerRun(1, func() {
		s, stores = &stores[0], stores[1:]
		ms := mons[:tables]
		mons, g = mons[tables:], growths{caps: g.caps[:0]}
		for i := range ms {
			ms[i] = s.Monitor(2.5, 250, est)
		}
		for id := NodeID(0); id < links; id++ {
			for i := range ms {
				c := cap(ms[i].keys)
				ms[i].Update(id+NodeID(i), Vehicle, geom.V(float64(id)*20, 0), geom.V(5, 0), -60, 0.01*float64(id))
				g.note(c, &ms[i])
			}
		}
		for i := range ms {
			c := cap(ms[i].keys)
			ms[i].Len()
			g.note(c, &ms[i])
		}
	})
	grown, chunks := g.caps, storeChunks(tables*links, tables, g)
	t.Logf("%d tables of %d links: %v allocations, %d key growths and %d chunks", tables, links, allocs, len(grown), chunks)
	if len(grown) > 2*tables || allocs != float64(chunks) {
		t.Fatalf("%d tables of %d links: %v allocations and %d key growths, want %d chunks and at most %d growths",
			tables, links, allocs, len(grown), chunks, 2*tables)
	}
	if s.carvedEntries != tables*links || s.carvedKeys != sum(grown) {
		t.Fatalf("the store carved %d entries for %d links and %d keys for growths to %d", s.carvedEntries, tables*links, s.carvedKeys, sum(grown))
	}
}

// TestOutgrownKeysAreReused grows one table to 18 keys and then past them,
// and a second table on the same store to 18: the second takes the array
// the first outgrew, and the store carves no key for it.
func TestOutgrownKeysAreReused(t *testing.T) {
	s := new(Store)
	a, b := s.Monitor(2.5, 250, nil), s.Monitor(2.5, 250, nil)
	hear := func(m *Monitor, from, to NodeID) {
		for id := from; id < to; id++ {
			m.Update(id, Vehicle, geom.V(float64(id)*20, 0), geom.V(5, 0), -60, 0)
		}
		m.Len()
	}
	hear(&a, 0, inboxCap)
	outgrown := &a.keys[:1][0]
	if cap(a.keys) != 18 {
		t.Fatalf("16 strangers grew the keys to %d, want 18", cap(a.keys))
	}
	hear(&a, inboxCap, 2*inboxCap)
	carved := s.carvedKeys
	if cap(a.keys) != 40 || s.freeKeys[keyClass(18)] == nil {
		t.Fatalf("32 links in %d keys with the 18 on no free list; want 40 keys and the 18 free", cap(a.keys))
	}
	hear(&b, 100, 100+inboxCap)
	if cap(b.keys) != 18 || &b.keys[:1][0] != outgrown || s.carvedKeys != carved {
		t.Fatalf("the second table grew to %d keys, carving %d; want the 18 the first outgrew and none carved", cap(b.keys), s.carvedKeys-carved)
	}
	if s.freeKeys[keyClass(18)] != nil || s.spareLists == nil {
		t.Fatal("the array taken is still on its free list, or its node was not kept for the next")
	}
	for i, id := range a.AppendIDs(nil) {
		if id != NodeID(i) {
			t.Fatalf("the first table holds %v after the second took its outgrown keys", a.AppendIDs(nil))
		}
	}
}

// growths records the key growths of a run: the capacity each grew to,
// and how many left an array behind.
type growths struct {
	caps     []int
	outgrown int
}

// note records a growth of m if its keys are no longer of capacity was.
func (g *growths) note(was int, m *Monitor) {
	if c := cap(m.keys); c != was {
		g.caps = append(g.caps, c)
		if was > 0 {
			g.outgrown++
		}
	}
}

// storeChunks is how many chunks a store's carve rule makes for a run that
// carves entries one at a time, an inbox for each of tables and a key array
// for every growth, and puts every array a growth outgrew on a free list,
// one node each: a run in which no growth finds a free array.
func storeChunks(entries, tables int, g growths) int {
	ones := func(n int) []int { return slices.Repeat([]int{1}, n) }
	return chunksFor(minEntryChunk, maxEntryChunk, ones(entries)) +
		chunksFor(minRecordChunk, maxRecordChunk, slices.Repeat([]int{inboxCap}, tables)) +
		chunksFor(minKeyChunk, maxKeyChunk, g.caps) +
		chunksFor(minListChunk, maxListChunk, ones(g.outgrown))
}

// chunksFor is how many chunks carve makes to hand out the given requests
// in order, from chunks of min(max(carved, lo), hi), or of the request
// when that is larger.
func chunksFor(lo, hi int, requests []int) int {
	chunks, spare, carved := 0, 0, 0
	for _, n := range requests {
		if spare < n {
			spare = max(n, min(max(carved, lo), hi))
			chunks++
		}
		spare -= n
		carved += n
	}
	return chunks
}

func sum(xs []int) int {
	s := 0
	for _, x := range xs {
		s += x
	}
	return s
}

// TestEntryKeepsItsAddress grows a table's keys twice under one link and
// requires that link's entry to stay where it was carved: keys point into
// the store, and a growth copies only the keys.
func TestEntryKeepsItsAddress(t *testing.T) {
	m := NewMonitor(2.5, 250, nil)
	m.Update(5, Vehicle, geom.V(100, 0), geom.V(5, 0), -60, 0)
	m.Len()
	_, e := m.find(5)
	keys := cap(m.keys)
	for id := NodeID(100); id < 130; id++ {
		m.Update(id, Vehicle, geom.V(float64(id), 0), geom.V(5, 0), -60, 0.5)
	}
	m.Update(5, Vehicle, geom.V(110, 0), geom.V(5, 0), -61, 1)
	m.Len()
	if cap(m.keys) == keys {
		t.Fatalf("the keys did not grow from %d", keys)
	}
	if _, after := m.find(5); after != e || e.id != 5 || e.beacons != 2 || e.pos.X != 110 {
		t.Fatalf("link 5 moved from %p to %p across a keys growth, or its entry %+v missed the refresh", e, after, *e)
	}
}

// TestExpiryReusesEntries expires a 32-link table and hears 32 strangers
// in its place, 50 times over, then half of it: every stranger reuses an
// entry the sweep freed, so the store carves nothing new.
func TestExpiryReusesEntries(t *testing.T) {
	m := warmMonitor()
	carved, now := m.store.carvedEntries, 0.0
	var gone []NodeID
	for cycle := 1; cycle <= 50; cycle++ {
		now += 10
		if gone = m.AppendExpired(gone[:0], now); len(gone) != 32 {
			t.Fatalf("cycle %d: %d links expired, want 32", cycle, len(gone))
		}
		for k := NodeID(0); k < 32; k++ {
			m.Update(NodeID(cycle)*32+k, Vehicle, geom.V(float64(k)*20, 0), geom.V(5, 0), -60, now)
		}
		if m.Len() != 32 || m.store.carvedEntries != carved {
			t.Fatalf("cycle %d: %d links, %d entries carved beyond the first %d; want 32 and none",
				cycle, m.Len(), m.store.carvedEntries-carved, carved)
		}
	}
	for k := NodeID(0); k < 16; k++ { // half refreshed, half gone, 16 strangers in their place
		m.Update(50*32+k, Vehicle, geom.V(float64(k)*20, 0), geom.V(5, 0), -60, now+5)
	}
	if gone = m.AppendExpired(gone[:0], now+5); len(gone) != 16 {
		t.Fatalf("%d links expired, want 16", len(gone))
	}
	for k := NodeID(0); k < 16; k++ {
		m.Update(5000+k, Vehicle, geom.V(float64(k)*20, 0), geom.V(5, 0), -60, now+5)
	}
	if m.Len() != 32 || m.store.carvedEntries != carved {
		t.Fatalf("%d links, %d entries carved beyond the first %d; want 32 and none", m.Len(), m.store.carvedEntries-carved, carved)
	}
}

func TestOrderedReadAllocs(t *testing.T) {
	m := warmMonitor()
	obs := Observer{Pos: geom.V(300, 10), Vel: geom.V(-5, 0), Now: 0.7, Epoch: 1}
	var buf []LinkState
	for name, read := range map[string]func(){
		"AppendSnapshot": func() { buf = m.AppendSnapshot(buf[:0]) },
		"AppendStates":   func() { buf = m.AppendStates(buf[:0], obs) },
	} {
		read() // warm the caller's buffer
		if allocs := testing.AllocsPerRun(100, read); allocs != 0 {
			t.Errorf("%s into a warm buffer allocated %v times per run, want 0", name, allocs)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { m.Snapshot() }); allocs != 1 {
		t.Errorf("Snapshot allocated %v times per run, want 1 (the returned slice)", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { m.States(obs) }); allocs != 1 {
		t.Errorf("States allocated %v times per run, want 1 (the returned slice)", allocs)
	}
}

// The Sec. VII integrals run per candidate per probe: the relative-speed
// distribution is a concrete prob.Normal, so nothing is boxed.
func TestDurationIntegralsAllocFree(t *testing.T) {
	var sink float64
	if allocs := testing.AllocsPerRun(50, func() { sink += ExpectedDuration(benchObs, benchLinks[0], 5, 250, 300) }); allocs != 0 {
		t.Errorf("ExpectedDuration allocated %v times per run, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(50, func() { sink += Survival(benchObs, benchLinks[0], 4, 250, 600, 10) }); allocs != 0 {
		t.Errorf("Survival allocated %v times per run, want 0", allocs)
	}
	if sink <= 0 {
		t.Fatalf("integrals summed to %v", sink)
	}
}
