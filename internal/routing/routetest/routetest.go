// Package routetest provides the controlled-topology fixtures every
// protocol test suite uses: worlds built from constant-velocity playback
// tracks so tests can place vehicles exactly and predict connectivity.
package routetest

import (
	"errors"
	"testing"

	"github.com/vanetlab/relroute/internal/geom"
	"github.com/vanetlab/relroute/internal/mobility"
	"github.com/vanetlab/relroute/internal/netstack"
	"github.com/vanetlab/relroute/internal/routing"
)

// Vehicle describes one test vehicle with constant velocity.
type Vehicle struct {
	Pos geom.Vec2
	Vel geom.Vec2
	Bus bool
}

// Chain returns n vehicles in a row on the x axis, gap meters apart, all
// moving east at speed.
func Chain(n int, gap, speed float64) []Vehicle {
	out := make([]Vehicle, n)
	for i := range out {
		out[i] = Vehicle{Pos: geom.V(float64(i)*gap, 0), Vel: geom.V(speed, 0)}
	}
	return out
}

// World builds a netstack world over the given vehicles with one router
// per vehicle from the factory. The playback horizon is 1000 s.
func World(t testing.TB, seed int64, vehicles []Vehicle, factory netstack.RouterFactory) (*netstack.World, []netstack.NodeID) {
	t.Helper()
	tracks := make([]mobility.Track, len(vehicles))
	for i, v := range vehicles {
		class := mobility.Car
		if v.Bus {
			class = mobility.Bus
		}
		tracks[i] = mobility.Track{
			ID:    mobility.VehicleID(i),
			Class: class,
			Waypoints: []mobility.Waypoint{
				{T: 0, Pos: v.Pos, Speed: v.Vel.Len()},
				{T: 1000, Pos: v.Pos.Add(v.Vel.Scale(1000)), Speed: v.Vel.Len()},
			},
		}
	}
	w := netstack.NewWorld(netstack.Config{Seed: seed}, mobility.NewPlayback(tracks))
	ids := w.AddVehicleNodes(factory)
	return w, ids
}

// RunFlow schedules packets src→dst and runs the world, returning the
// delivered count. Packets start at start and repeat every interval.
func RunFlow(t *testing.T, w *netstack.World, src, dst netstack.NodeID, start, interval, until float64, count int) int {
	t.Helper()
	w.AddFlow(src, dst, start, interval, count, 256)
	if err := w.Run(until); err != nil {
		t.Fatal(err)
	}
	return w.Collector().DataDelivered
}

// MustDeliverAll asserts a flow delivers everything it sent.
func MustDeliverAll(t *testing.T, w *netstack.World, src, dst netstack.NodeID, count int) {
	t.Helper()
	delivered := RunFlow(t, w, src, dst, 3, 0.5, 3+float64(count)*0.5+5, count)
	if delivered != count {
		t.Fatalf("delivered %d of %d packets (drops=%d)",
			delivered, count, w.Collector().DataDropped)
	}
}

// Heard is one packet a Recorder node received.
type Heard struct {
	At       netstack.NodeID // the receiving node
	Src, Dst netstack.NodeID
}

// Recorder returns a factory of routers that beacon, route nothing and
// append every packet handed to them to log. A sender's MAC queue is FIFO,
// so what one sender's receivers log is the order of its API.Send calls.
func Recorder(log *[]Heard) netstack.RouterFactory {
	return func() netstack.Router { return &recorder{log: log} }
}

type recorder struct {
	netstack.Base
	log *[]Heard
}

func (r *recorder) Originate(netstack.NodeID, int) {}
func (r *recorder) HandlePacket(pkt *netstack.Packet) {
	*r.log = append(*r.log, Heard{At: r.API.Self(), Src: pkt.Src, Dst: pkt.Dst})
}

// RelayCost is what RelayAllocs measured: the objects one pair of copies
// costs once warm, the requests sent meanwhile, the bytes of the copies
// dropped at the TTL that were not back in the pool at once (a pooled
// packet is zeroed), and the first error advancing the world.
type RelayCost struct {
	Allocs       float64
	Sent, Astray int
	Err          error
}

// RelayAllocs hands relay, the router whose API is api, request copies of
// req from the neighbour from, as the stack hands a received copy over: a
// pooled packet one hop out, with a request ID of its own. Every 0.1 s it
// hands two, one with its last hop to spend, which the relay must drop
// back into the pool at once, and one with hops left, which it relays.
// After 300 pairs warm the relay up, it measures 100 more.
func RelayAllocs[P any](w *netstack.World, relay netstack.Router, api *netstack.API,
	from netstack.NodeID, req routing.Request[P]) RelayCost {
	var c RelayCost
	now := w.Engine().Now()
	hand := func(ttl int) *netstack.Packet {
		req.ReqID++
		pkt := api.NewPacket()
		*pkt = netstack.Packet{Kind: netstack.KindRREQ, Src: req.Origin, Dst: netstack.Broadcast, From: from,
			TTL: ttl, Hops: 1, Size: 56, Payload: &req}
		relay.HandlePacket(pkt)
		return pkt
	}
	pair := func() {
		c.Astray += hand(1).Size
		hand(8)
		now += 0.1
		c.Err = errors.Join(c.Err, w.AdvanceTo(now))
	}
	for range 300 {
		pair()
	}
	before := w.Collector().Control[netstack.KindRREQ]
	c.Allocs = testing.AllocsPerRun(100, pair)
	c.Sent = w.Collector().Control[netstack.KindRREQ] - before
	return c
}
