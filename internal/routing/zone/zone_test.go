package zone_test

import (
	"testing"

	"github.com/vanetlab/relroute/internal/geom"
	"github.com/vanetlab/relroute/internal/routing/routetest"
	"github.com/vanetlab/relroute/internal/routing/zone"
)

func TestDeliversWithinCorridor(t *testing.T) {
	w, ids := routetest.World(t, 1, routetest.Chain(6, 150, 20), zone.New())
	routetest.MustDeliverAll(t, w, ids[0], ids[5], 5)
}

func TestNodesOutsideZoneStaySilent(t *testing.T) {
	// a flow along the x axis, whose zone reaches one radio range (250 m)
	// either side of it. A relay 200 m off the axis is inside and
	// rebroadcasts; a node 420 m off it hears only that relay and, being
	// outside, must stay silent.
	relay := routetest.Vehicle{Pos: geom.V(225, 200)}
	outside := routetest.Vehicle{Pos: geom.V(225, 420)}
	transmits := func(extra ...routetest.Vehicle) int {
		t.Helper()
		w, ids := routetest.World(t, 1, append(routetest.Chain(4, 150, 0), extra...), zone.New())
		w.AddFlow(ids[0], ids[3], 1, 1, 1, 256)
		if err := w.Run(5); err != nil {
			t.Fatal(err)
		}
		c := w.Collector()
		if c.DataDelivered != 1 {
			t.Fatalf("delivered = %d", c.DataDelivered)
		}
		return c.MACTransmits
	}
	axis := transmits()
	withRelay := transmits(relay)
	withOutside := transmits(relay, outside)
	if withRelay != axis+1 {
		t.Fatalf("transmissions: %d on the axis, %d with the off-axis relay; want it to rebroadcast once", axis, withRelay)
	}
	if withOutside != withRelay {
		t.Fatalf("transmissions = %d with the off-zone node, %d without; it rebroadcast", withOutside, withRelay)
	}
}

func TestZoneNeedsNoBeacons(t *testing.T) {
	w, ids := routetest.World(t, 1, routetest.Chain(3, 150, 20), zone.New())
	w.AddFlow(ids[0], ids[2], 1, 1, 1, 256)
	if err := w.Run(4); err != nil {
		t.Fatal(err)
	}
	if got := w.Collector().Control["HELLO"]; got != 0 {
		t.Fatalf("zone flooding charged %d beacons", got)
	}
}
