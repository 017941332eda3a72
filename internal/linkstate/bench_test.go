package linkstate

import (
	"math/rand"
	"testing"

	"github.com/vanetlab/relroute/internal/geom"
)

// The macro world's shape, not one hot table: 5 000 monitors of 25 entries
// each (≈ 20 MB of table state), built and visited so that every operation
// starts cache-cold like a beacon reaching its next receiver.
const (
	benchMonitors = 5000
	benchEntries  = 25
	benchTTL      = 2.5
)

// benchWorld fills monitor i with the 25 neighbours i … i+24 of a 50 veh/km
// highway, entry k last heard at 0.1·k s — staggered like real beacons, all
// inside one TTL — and returns the order to visit them in. Every monitor
// hears its k-th neighbour before any hears its (k+1)-th, as a world's
// first second goes, so the tables grow interleaved on the heap; and the
// visiting order is shuffled: in index order over tables allocated back to
// back, the stride prefetcher hides the miss a reception pays.
func benchWorld() (mons []*Monitor, order []int) {
	est := MustNew("", Config{Range: 250})
	mons = make([]*Monitor, benchMonitors)
	for i := range mons {
		mons[i] = NewMonitor(benchTTL, 250, est)
	}
	for k := 0; k < benchEntries; k++ {
		for i, m := range mons {
			benchHear(m, i, k, 0.1*float64(k))
		}
	}
	for _, m := range mons {
		m.Len() // fold what is left, so no benchmark times the last growth step
	}
	return mons, rand.New(rand.NewSource(23)).Perm(benchMonitors)
}

// benchHear is monitor i hearing its k-th neighbour's beacon.
func benchHear(m *Monitor, i, k int, now float64) {
	id := NodeID(i + k)
	m.Update(id, Vehicle, geom.V(float64(id)*20, 0), geom.V(25, 0), -70, now)
}

var benchSink int

// BenchmarkMonitorUpdate is the refresh path: one beacon of a known link
// recorded by the next monitor, which folds every sixteenth.
func BenchmarkMonitorUpdate(b *testing.B) {
	mons, order := benchWorld()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at, round := order[i%benchMonitors], i/benchMonitors
		benchHear(mons[at], at, round%benchEntries, 3+0.04*float64(round))
	}
}

// BenchmarkMonitorStatesAfterBeacons is the routing read of a probing
// protocol: sixteen beacons, then the next monitor's whole table with
// predictions, which folds them first. ns/op is per 16 beacons and one
// 25-entry read.
func BenchmarkMonitorStatesAfterBeacons(b *testing.B) {
	mons, order := benchWorld()
	var buf []LinkState
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at, round := order[i%benchMonitors], i/benchMonitors
		now := 3 + 0.04*float64(round)
		for k := 0; k < inboxCap; k++ {
			benchHear(mons[at], at, (round+k)%benchEntries, now)
		}
		buf = mons[at].AppendStates(buf[:0], Observer{Pos: geom.V(float64(at)*20, 0), Vel: geom.V(25, 0), Now: now, Epoch: uint64(round)})
		benchSink += len(buf)
	}
}

// BenchmarkMonitorExpire is the sweep that finds work: on each visit the
// clock has moved just far enough that the monitor's oldest entry is
// stale, so Expire walks the table and compacts one entry away, and the
// neighbour is then heard again (one insert) to keep the table at 25.
func BenchmarkMonitorExpire(b *testing.B) {
	mons, order := benchWorld()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at, round := order[i%benchMonitors], i/benchMonitors
		m := mons[at]
		// entry round%25 was last heard at 0.1·round
		benchSink += len(m.Expire(0.1*float64(round) + benchTTL + 0.05))
		benchHear(m, at, round%benchEntries, 0.1*float64(round+benchEntries))
	}
}

// BenchmarkMonitorSnapshot is a routing decision's ordered read of the
// next monitor's whole table: ns/op is per 25-entry table.
func BenchmarkMonitorSnapshot(b *testing.B) {
	mons, order := benchWorld()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink += len(mons[order[i%benchMonitors]].Snapshot())
	}
}

// benchLinks are the links a TBP-SS router scores, drawn once: neighbours
// up to 240 m away on either side and two lanes across, 20–35 m/s both
// ends. The integral's branches (which side of Δv = 0 a node lies on, where
// the horizon cuts in) follow the model, so one fixed link would measure a
// trained predictor.
var (
	benchObs   = Observer{Pos: geom.V(0, 0), Vel: geom.V(30, 0)}
	benchLinks = func() (ls [64]LinkState) {
		rng := rand.New(rand.NewSource(18))
		for i := range ls {
			ls[i] = LinkState{
				Pos: geom.V(480*rng.Float64()-240, 7*rng.Float64()-3.5),
				Vel: geom.V(20+15*rng.Float64(), 0),
			}
		}
		return ls
	}()
	benchF64 float64
)

// BenchmarkExpectedDuration is one Sec. VII stability integral: the window
// of the relative-speed normal plus a 400-panel Simpson sum.
func BenchmarkExpectedDuration(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchF64 += ExpectedDuration(benchObs, benchLinks[i%len(benchLinks)], 5, 250, 300)
	}
}

// BenchmarkSurvival is the NiuDe-style availability integral over the same
// window.
func BenchmarkSurvival(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchF64 += Survival(benchObs, benchLinks[i%len(benchLinks)], 4, 250, 600, 10)
	}
}
