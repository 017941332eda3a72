package hybrid_test

import (
	"testing"

	"github.com/vanetlab/relroute/internal/core"
	"github.com/vanetlab/relroute/internal/geom"
	"github.com/vanetlab/relroute/internal/netstack"
	"github.com/vanetlab/relroute/internal/routing/hybrid"
	"github.com/vanetlab/relroute/internal/routing/routetest"
)

func TestDeliversAcrossChain(t *testing.T) {
	w, ids := routetest.World(t, 1, routetest.Chain(5, 150, 20), hybrid.New(3))
	routetest.MustDeliverAll(t, w, ids[0], ids[4], 5)
}

func TestNameDistinguishesFromTBPSS(t *testing.T) {
	r := hybrid.New(3)()
	if r.Name() != "Hybrid" {
		t.Fatalf("name = %q", r.Name())
	}
}

func TestScoreGatesOppositeDirectionLinks(t *testing.T) {
	// capture an API by attaching a probe router to a two-node world
	var api *netstack.API
	capture := func() netstack.Router {
		return &captureRouter{apiSink: &api}
	}
	vehicles := []routetest.Vehicle{
		{Pos: geom.V(0, 0), Vel: geom.V(30, 0)},
		{Pos: geom.V(100, 0), Vel: geom.V(-30, 0)}, // opposite direction
	}
	w, _ := routetest.World(t, 1, vehicles, capture)
	if err := w.Run(3); err != nil {
		t.Fatal(err)
	}
	if api == nil {
		t.Fatal("api not captured")
	}
	nbs := api.Neighbors()
	if len(nbs) != 1 {
		t.Fatalf("neighbors = %d", len(nbs))
	}
	got := hybrid.Score(api, nbs[0])
	det := core.LinkStability(core.MetricDeterministic, core.StabilityParams{},
		api.Pos(), api.Vel(), nbs[0].Pos, nbs[0].Vel, api.RangeEstimate())
	if got > det+1e-9 {
		t.Fatalf("opposite-direction score %v exceeds deterministic prediction %v", got, det)
	}
}

func TestScorePrefersCoMovingNeighbor(t *testing.T) {
	var api *netstack.API
	capture := func() netstack.Router {
		return &captureRouter{apiSink: &api}
	}
	vehicles := []routetest.Vehicle{
		{Pos: geom.V(0, 0), Vel: geom.V(30, 0)},
		{Pos: geom.V(100, 20), Vel: geom.V(29, 0)},   // co-moving
		{Pos: geom.V(100, -20), Vel: geom.V(-29, 0)}, // head-on
	}
	w, ids := routetest.World(t, 1, vehicles, capture)
	if err := w.Run(3); err != nil {
		t.Fatal(err)
	}
	var co, opp float64
	for _, nb := range api.Neighbors() {
		s := hybrid.Score(api, nb)
		if nb.ID == ids[1] {
			co = s
		} else {
			opp = s
		}
	}
	if co <= opp {
		t.Fatalf("co-moving score %v not above head-on %v", co, opp)
	}
}

// captureRouter only records its API; the first instance wins (node 0).
type captureRouter struct {
	netstack.Base
	apiSink **netstack.API
}

func (c *captureRouter) Name() string { return "capture" }

func (c *captureRouter) Attach(api *netstack.API) {
	c.Base.Attach(api)
	if *c.apiSink == nil {
		*c.apiSink = api
	}
}

func (c *captureRouter) HandlePacket(*netstack.Packet)  {}
func (c *captureRouter) Originate(netstack.NodeID, int) {}
