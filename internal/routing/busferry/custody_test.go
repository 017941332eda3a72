package busferry

import (
	"testing"

	"github.com/vanetlab/relroute/internal/geom"
	"github.com/vanetlab/relroute/internal/netstack"
	"github.com/vanetlab/relroute/internal/routing/routetest"
)

// A car's custody is bounded: with its buffer full, taking one more packet
// drops the one carried longest, counts one drop and hands that packet back
// to the stack's pool, and the buffer stays full.
func TestFullBufferDropsOldest(t *testing.T) {
	var car *Router
	w, ids := routetest.World(t, 1, []routetest.Vehicle{{Pos: geom.V(0, 0)}, {Pos: geom.V(5000, 0)}}, func() netstack.Router {
		r := New()().(*Router)
		if car == nil {
			car = r
		}
		return r
	})
	w.StartRun()
	if err := w.AdvanceTo(1); err != nil {
		t.Fatal(err)
	}
	c := w.Collector()
	pkts := make([]netstack.Packet, carBufferCap+1)
	for i := range pkts {
		pkts[i] = netstack.Packet{UID: uint64(i + 1), Kind: netstack.KindData, Src: 9, Dst: ids[1], TTL: 8, Created: 1}
	}
	for i := range pkts[:carBufferCap] {
		car.HandlePacket(&pkts[i])
	}
	if car.Carried() != carBufferCap || c.DataDropped != 0 {
		t.Fatalf("carried %d, dropped %d; want the buffer full at %d and nothing dropped", car.Carried(), c.DataDropped, carBufferCap)
	}
	car.HandlePacket(&pkts[carBufferCap])
	if car.Carried() != carBufferCap || c.DataDropped != 1 {
		t.Fatalf("carried %d, dropped %d; want %d carried and one dropped", car.Carried(), c.DataDropped, carBufferCap)
	}
	for i := range pkts {
		if released, oldest := pkts[i] == (netstack.Packet{}), i == 0; released != oldest {
			t.Fatalf("packet %d of %d back in the pool: %v; want only the first, carried longest", i+1, len(pkts), released)
		}
	}
}
