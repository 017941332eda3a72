package gateway_test

import (
	"testing"

	"github.com/vanetlab/relroute/internal/geom"
	"github.com/vanetlab/relroute/internal/netstack"
	"github.com/vanetlab/relroute/internal/routing/flood"
	"github.com/vanetlab/relroute/internal/routing/gateway"
	"github.com/vanetlab/relroute/internal/routing/routetest"
)

func TestDeliversAcrossChain(t *testing.T) {
	w, ids := routetest.World(t, 1, routetest.Chain(6, 150, 20), gateway.New())
	routetest.MustDeliverAll(t, w, ids[0], ids[5], 5)
}

func TestSuppressesDuplicatesVsFlooding(t *testing.T) {
	// a dense cluster: gateway election must cut transmissions well below
	// flooding on the same topology
	cluster := func() []routetest.Vehicle {
		var out []routetest.Vehicle
		for i := 0; i < 24; i++ {
			out = append(out, routetest.Vehicle{
				Pos: geom.V(float64(i%8)*55, float64(i/8)*40),
				Vel: geom.V(10, 0),
			})
		}
		return out
	}
	wf, idsF := routetest.World(t, 1, cluster(), flood.New())
	wf.AddFlow(idsF[0], idsF[23], 1, 1, 5, 256)
	if err := wf.Run(10); err != nil {
		t.Fatal(err)
	}
	wg, idsG := routetest.World(t, 1, cluster(), gateway.New())
	wg.AddFlow(idsG[0], idsG[23], 1, 1, 5, 256)
	if err := wg.Run(10); err != nil {
		t.Fatal(err)
	}
	floodTx := wf.Collector().MACTransmits
	gwTx := wg.Collector().MACTransmits - wg.Collector().Control[netstack.KindHello]
	if wg.Collector().DataDelivered == 0 {
		t.Fatal("gateway clustering delivered nothing")
	}
	if gwTx >= floodTx {
		t.Fatalf("gateway data transmissions %d not below flooding %d", gwTx, floodTx)
	}
}

func TestMembersReadWithoutForwarding(t *testing.T) {
	// two nodes share one cell; the farther-from-center one must not
	// rebroadcast (single gateway per cell)
	vehicles := []routetest.Vehicle{
		{Pos: geom.V(10, 0)},  // source, cell [0,125)
		{Pos: geom.V(62, 0)},  // near cell center: the gateway
		{Pos: geom.V(100, 0)}, // member: reads, stays silent
		{Pos: geom.V(240, 0)}, // destination in the next cell
	}
	w, ids := routetest.World(t, 1, vehicles, gateway.New())
	w.AddFlow(ids[0], ids[3], 1, 1, 1, 256)
	if err := w.Run(5); err != nil {
		t.Fatal(err)
	}
	c := w.Collector()
	if c.DataDelivered != 1 {
		t.Fatalf("delivered = %d", c.DataDelivered)
	}
	// src + one gateway relay ≤ 2 data transmissions
	dataTx := c.MACTransmits - c.Control[netstack.KindHello]
	if dataTx > 2 {
		t.Fatalf("data transmissions = %d; a member must have forwarded", dataTx)
	}
}
