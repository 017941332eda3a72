package mobility

import (
	"math"
	"math/rand"
	"testing"

	"github.com/vanetlab/relroute/internal/geom"
	"github.com/vanetlab/relroute/internal/roadnet"
)

func TestPlaybackInterpolation(t *testing.T) {
	tracks := []Track{{
		ID: 0,
		Waypoints: []Waypoint{
			{T: 0, Pos: geom.V(0, 0), Speed: 10},
			{T: 10, Pos: geom.V(100, 0), Speed: 10},
		},
	}}
	m := NewPlayback(tracks)
	m.Advance(5)
	s := m.StatesInto(nil)[0]
	if math.Abs(s.Pos.X-50) > 1e-9 {
		t.Fatalf("interpolated pos = %v", s.Pos)
	}
	if math.Abs(s.Vel.X-10) > 1e-9 {
		t.Fatalf("interpolated vel = %v", s.Vel)
	}
	if math.Abs(s.Speed-10) > 1e-9 {
		t.Fatalf("interpolated speed = %v", s.Speed)
	}
}

// TestPlaybackActiveWindows is the regression test for the "parked
// phantom" bug: vehicles outside their [first, last] waypoint window used
// to sit frozen at the endpoint with zero velocity and keep receiving and
// forwarding packets. They must instead be absent from the state set.
func TestPlaybackActiveWindows(t *testing.T) {
	tracks := []Track{{
		ID: 0,
		Waypoints: []Waypoint{
			{T: 5, Pos: geom.V(10, 10), Speed: 3},
			{T: 15, Pos: geom.V(20, 10), Speed: 3},
		},
	}}
	m := NewPlayback(tracks)
	if got := m.StatesInto(nil); len(got) != 0 {
		t.Fatalf("pre-span states = %+v, want vehicle absent", got)
	}
	if m.Len() != 0 {
		t.Fatalf("pre-span Len = %d", m.Len())
	}
	m.Advance(5) // t = 5: window opens at the first waypoint
	if got := m.StatesInto(nil); len(got) != 1 || got[0].Pos != geom.V(10, 10) {
		t.Fatalf("window-open states = %+v", got)
	}
	m.Advance(10) // t = 15: last waypoint is still inside the window
	if got := m.StatesInto(nil); len(got) != 1 || got[0].Pos != geom.V(20, 10) {
		t.Fatalf("window-close states = %+v", got)
	}
	m.Advance(0.1) // t > 15: the vehicle has left the world
	if got := m.StatesInto(nil); len(got) != 0 {
		t.Fatalf("post-span states = %+v, want vehicle absent", got)
	}
	if m.Len() != 0 {
		t.Fatalf("post-span Len = %d", m.Len())
	}
}

func TestTrackSpan(t *testing.T) {
	tr := Track{Waypoints: []Waypoint{{T: 2}, {T: 7}}}
	if first, last := tr.Span(); first != 2 || last != 7 {
		t.Fatalf("span = [%v, %v]", first, last)
	}
	empty := Track{}
	if first, last := empty.Span(); first <= last {
		t.Fatalf("empty track span [%v, %v] not empty", first, last)
	}
}

func TestPlaybackSortsWaypoints(t *testing.T) {
	tracks := []Track{{
		ID: 0,
		Waypoints: []Waypoint{
			{T: 10, Pos: geom.V(100, 0)},
			{T: 0, Pos: geom.V(0, 0)},
		},
	}}
	m := NewPlayback(tracks)
	m.Advance(5)
	if s := m.StatesInto(nil)[0]; math.Abs(s.Pos.X-50) > 1e-9 {
		t.Fatalf("pos with unsorted input = %v", s.Pos)
	}
}

func TestPlaybackDefaultsClassCar(t *testing.T) {
	m := NewPlayback([]Track{{ID: 0, Waypoints: []Waypoint{{T: 0, Pos: geom.V(0, 0)}}}})
	if got := m.StatesInto(nil)[0].Class; got != Car {
		t.Fatalf("class = %v", got)
	}
}

func TestPlaybackEmptyTrackSkipped(t *testing.T) {
	m := NewPlayback([]Track{{ID: 0}, {ID: 1, Waypoints: []Waypoint{{T: 0, Pos: geom.V(1, 1)}}}})
	if got := len(m.StatesInto(nil)); got != 1 {
		t.Fatalf("states = %d, want empty track skipped", got)
	}
	if m.Len() != 1 {
		t.Fatalf("len = %d, want only the in-window track counted", m.Len())
	}
	if len(m.tracks) != 2 {
		t.Fatalf("tracks = %d", len(m.tracks))
	}
}

func TestRecordRoundTripsThroughPlayback(t *testing.T) {
	net, eb, _, err := roadnet.Highway(5000, 2, 40)
	if err != nil {
		t.Fatal(err)
	}
	src := NewRoadModel(net, rand.New(rand.NewSource(1)))
	src.AddVehicle(eb, 0, 0, DefaultIDM(25), Car)
	src.AddVehicle(eb, 1, 200, DefaultIDM(30), Car)
	tracks := Record(src, 0.5, 20)
	if len(tracks) != 2 {
		t.Fatalf("recorded %d tracks", len(tracks))
	}
	if len(tracks[0].Waypoints) != 41 { // 0..20 inclusive at 0.5 s
		t.Fatalf("waypoints = %d", len(tracks[0].Waypoints))
	}
	// replay and verify motion is monotone eastbound like the source
	pb := NewPlayback(tracks)
	prevX := pb.StatesInto(nil)[0].Pos.X
	for i := 0; i < 40; i++ {
		pb.Advance(0.5)
		x := pb.StatesInto(nil)[0].Pos.X
		if x < prevX-1e-6 {
			t.Fatalf("playback moved backwards at step %d", i)
		}
		prevX = x
	}
}
