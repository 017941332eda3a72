package linkstate

import (
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
// per link, one per unread beacon.
func TestTableRecordSizes(t *testing.T) {
	if got := unsafe.Sizeof(entry{}); got > 128 {
		t.Errorf("entry is %d bytes, want at most 128", got)
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
	// one link goes stale per run and is heard again into its freed slot:
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
