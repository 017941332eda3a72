package mobility

import (
	"math"
	"sort"

	"github.com/vanetlab/relroute/internal/digest"
	"github.com/vanetlab/relroute/internal/geom"
)

// Waypoint is one sampled trace point of one vehicle.
type Waypoint struct {
	T     float64
	Pos   geom.Vec2
	Speed float64
}

// Track is the time-ordered trajectory of one vehicle.
type Track struct {
	ID        VehicleID
	Waypoints []Waypoint
	Class     Class
}

// Span returns the track's active window [first, last] — the times of its
// first and last waypoint. Tracks with no waypoints return (0, -1), an
// empty window.
func (t *Track) Span() (first, last float64) {
	if len(t.Waypoints) == 0 {
		return 0, -1
	}
	return t.Waypoints[0].T, t.Waypoints[len(t.Waypoints)-1].T
}

// PlaybackModel replays recorded trajectories (e.g. parsed from a SUMO
// floating-car-data export) as a mobility model, interpolating positions
// linearly between waypoints.
//
// Every track has an active window: the closed interval from its first to
// its last waypoint. Outside that window the vehicle does not exist —
// StatesInto omits it, so a network stack polling the model sees the
// vehicle join the world when its trace begins and leave when it ends,
// exactly like a SUMO vehicle entering and completing its route. (Earlier
// versions parked out-of-window vehicles at the nearest endpoint with zero
// velocity, where they kept receiving and forwarding packets as phantom
// relays.)
type PlaybackModel struct {
	tracks []Track
	now    float64
}

// NewPlayback returns a playback model over the given tracks. Waypoints of
// each track are sorted by time.
func NewPlayback(tracks []Track) *PlaybackModel {
	for i := range tracks {
		wps := tracks[i].Waypoints
		sort.Slice(wps, func(a, b int) bool { return wps[a].T < wps[b].T })
		if tracks[i].Class == 0 {
			tracks[i].Class = Car
		}
	}
	return &PlaybackModel{tracks: tracks}
}

// Len implements Model: the number of vehicles currently inside their
// active window.
func (m *PlaybackModel) Len() int {
	n := 0
	for i := range m.tracks {
		if first, last := m.tracks[i].Span(); m.now >= first && m.now <= last {
			n++
		}
	}
	return n
}

// Advance implements Model.
func (m *PlaybackModel) Advance(dt float64) { m.now += dt }

// DigestInto folds the playback state into d. The tracks themselves are
// immutable input data reproduced by the scenario rebuild, so only the
// clock and the track count participate.
func (m *PlaybackModel) DigestInto(d *digest.Writer) {
	d.F64(m.now)
	d.Int(len(m.tracks))
}

// StatesInto implements Model: it appends the state of every track whose
// active window contains the current playback time. Vehicles before their
// first or after their last waypoint are absent, not parked.
func (m *PlaybackModel) StatesInto(dst []State) []State {
	for i := range m.tracks {
		tr := &m.tracks[i]
		first, last := tr.Span()
		if m.now < first || m.now > last {
			continue
		}
		pos, vel, speed := interpolate(tr.Waypoints, m.now)
		dst = append(dst, State{
			ID:    tr.ID,
			Pos:   pos,
			Vel:   vel,
			Speed: speed,
			Class: tr.Class,
		})
	}
	return dst
}

func interpolate(wps []Waypoint, t float64) (pos, vel geom.Vec2, speed float64) {
	if t <= wps[0].T {
		return wps[0].Pos, geom.Vec2{}, 0
	}
	last := wps[len(wps)-1]
	if t >= last.T {
		return last.Pos, geom.Vec2{}, 0
	}
	idx := sort.Search(len(wps), func(i int) bool { return wps[i].T > t }) - 1
	a, b := wps[idx], wps[idx+1]
	span := b.T - a.T
	if span <= 0 {
		return a.Pos, geom.Vec2{}, a.Speed
	}
	frac := (t - a.T) / span
	pos = geom.Lerp(a.Pos, b.Pos, frac)
	vel = b.Pos.Sub(a.Pos).Scale(1 / span)
	speed = a.Speed + frac*(b.Speed-a.Speed)
	if speed == 0 {
		speed = vel.Len()
	}
	if math.IsNaN(speed) {
		speed = 0
	}
	return pos, vel, speed
}

// Record samples a model's states at fixed intervals for duration seconds,
// producing tracks suitable for SUMO FCD export or later playback. It
// advances the model as a side effect.
func Record(m Model, interval, duration float64) []Track {
	byID := make(map[VehicleID]*Track)
	var order []VehicleID
	var states []State
	for t := 0.0; t <= duration+1e-9; t += interval {
		states = m.StatesInto(states[:0])
		for _, s := range states {
			tr, ok := byID[s.ID]
			if !ok {
				tr = &Track{ID: s.ID, Class: s.Class}
				byID[s.ID] = tr
				order = append(order, s.ID)
			}
			tr.Waypoints = append(tr.Waypoints, Waypoint{T: t, Pos: s.Pos, Speed: s.Speed})
		}
		m.Advance(interval)
	}
	out := make([]Track, 0, len(order))
	for _, id := range order {
		out = append(out, *byID[id])
	}
	return out
}
