package netstack_test

import (
	"slices"
	"testing"

	"github.com/vanetlab/relroute/internal/core"
	"github.com/vanetlab/relroute/internal/geom"
	"github.com/vanetlab/relroute/internal/netstack"
	"github.com/vanetlab/relroute/internal/roadnet"
	"github.com/vanetlab/relroute/internal/routing/abedi"
	"github.com/vanetlab/relroute/internal/routing/aodv"
	"github.com/vanetlab/relroute/internal/routing/busferry"
	"github.com/vanetlab/relroute/internal/routing/car"
	"github.com/vanetlab/relroute/internal/routing/dsdv"
	"github.com/vanetlab/relroute/internal/routing/dsr"
	"github.com/vanetlab/relroute/internal/routing/flood"
	"github.com/vanetlab/relroute/internal/routing/gateway"
	"github.com/vanetlab/relroute/internal/routing/greedy"
	"github.com/vanetlab/relroute/internal/routing/gvgrid"
	"github.com/vanetlab/relroute/internal/routing/hybrid"
	"github.com/vanetlab/relroute/internal/routing/niude"
	"github.com/vanetlab/relroute/internal/routing/pbr"
	"github.com/vanetlab/relroute/internal/routing/rear"
	"github.com/vanetlab/relroute/internal/routing/routetest"
	"github.com/vanetlab/relroute/internal/routing/rsu"
	"github.com/vanetlab/relroute/internal/routing/taleb"
	"github.com/vanetlab/relroute/internal/routing/zone"
	"github.com/vanetlab/relroute/internal/scenario"
)

// TestEveryProtocolKeepsThePoolClean runs every protocol of the scenario
// registry on the faulted chain of TestSourceRoutedPacketsRecycled, where
// sends fail and routes break, and looks at the stack's pool every 0.1 s:
// no packet may sit in the free list twice, and every packet in it must
// still be the zero Packet. A router that sent or released a packet and
// then touched it again — a retry, a timer, a buffer — fails one of the
// two, which no golden would show.
func TestEveryProtocolKeepsThePoolClean(t *testing.T) {
	cases := []struct {
		name    string
		factory func() netstack.RouterFactory
		bus     bool                    // the chain's inner vehicles are buses
		statics func(w *netstack.World) // static nodes the protocol needs
	}{
		{name: "Flooding", factory: flood.New},
		{name: "Biswas", factory: flood.NewBiswas},
		{name: "AODV", factory: aodv.New},
		{name: "DSDV", factory: dsdv.New},
		{name: "DSR", factory: dsr.New},
		{name: "PBR", factory: pbr.New},
		{name: "Taleb", factory: taleb.New},
		{name: "Abedi", factory: abedi.New},
		{name: "DRR", factory: rsu.NewVehicle, statics: func(w *netstack.World) {
			backbone := rsu.NewBackbone()
			for _, x := range []float64{150, 550} {
				w.AddStaticNode(netstack.RSU, geom.V(x, 50), rsu.NewUnit(backbone))
			}
		}},
		{name: "Bus", factory: busferry.New, bus: true},
		{name: "Greedy", factory: greedy.New},
		{name: "Zone", factory: zone.New},
		{name: "LORA-DCBF", factory: gateway.New},
		{name: "REAR", factory: rear.New},
		{name: "CAR", factory: func() netstack.RouterFactory {
			net, _, _, err := roadnet.Highway(2000, 2, 33)
			if err != nil {
				t.Fatal(err)
			}
			return car.New(car.NewDensityMap(net, 250))
		}},
		{name: "GVGrid", factory: gvgrid.New},
		{name: "Yan-TBP", factory: func() netstack.RouterFactory {
			return core.NewTicketRouter(core.WithMetric(core.MetricExpectedDuration))
		}},
		{name: "TBP-SS", factory: func() netstack.RouterFactory {
			return core.NewTicketRouter(core.WithMetric(core.MetricMeanDuration))
		}},
		{name: "NiuDe", factory: niude.New},
		{name: "Hybrid", factory: func() netstack.RouterFactory { return hybrid.New(3) }},
	}
	var names []string
	for _, tc := range cases {
		names = append(names, tc.name)
	}
	if want := scenario.Protocols(); !slices.Equal(names, want) {
		t.Fatalf("cases %v, registry %v: give every registered protocol a case", names, want)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			chain := routetest.Chain(8, 100, 20)
			for i := 1; i < len(chain)-1; i++ {
				chain[i].Bus = tc.bus
			}
			fails, handed := 0, map[*netstack.Packet]bool{}
			factory := tc.factory()
			w, ids := routetest.World(t, 1, chain, func() netstack.Router {
				return handedOut{failCounter{factory(), &fails}, handed}
			})
			if tc.statics != nil {
				tc.statics(w)
			}
			w.SetLinkFault(func(from, to int32) float64 {
				if int(w.Engine().Now()*2.7)%4 == 1 {
					return 1
				}
				return 0
			})
			n := len(ids)
			w.AddFlow(ids[0], ids[n-1], 2, 0.2, 10, 256)
			w.AddFlow(ids[0], ids[n-1], 2.1, 0.2, 10, 256)
			w.AddFlow(ids[0], ids[n-1], 42, 0.2, 10, 256)
			w.StartRun()
			for step := 1; step <= 800; step++ {
				if err := w.AdvanceTo(float64(step) / 10); err != nil {
					t.Fatal(err)
				}
				netstack.CheckFreeList(t, w)
				for _, p := range netstack.FreeList(w) {
					if *p != (netstack.Packet{}) {
						t.Fatalf("t=%.1f: a recycled packet was written after it came back: %v", w.Engine().Now(), p)
					}
				}
			}
			c := w.Collector()
			t.Logf("%d delivered, %d dropped, %d send failures, %d packets handed out, %d in the pool",
				c.DataDelivered, c.DataDropped, fails, len(handed), len(netstack.FreeList(w)))
			if len(handed) == 0 || len(netstack.FreeList(w)) == 0 {
				t.Fatal("no packet went through the pool: the run tested nothing")
			}
		})
	}
}

// TestTableDrivenPacketsRecycled runs the six table-driven routers on a
// line of co-moving vehicles: DSDV, whose periodic table dumps reach every
// neighbour and whose first wave of data starts before the tables
// converge, so the origin drops some of it, and the five on-demand
// routers, whose request floods reach every vehicle, are answered by the
// last and leave duplicates and dead ends at every hop. Every packet such
// a router is handed comes back to the stack's pool: a dump once it is
// read, a request copy once it is rebroadcast or dies, a reply once it is
// relayed or reaches the origin, data at delivery or drop. So once the
// first wave has run out, every packet handed to a router is back in the
// pool, and a second wave, its discoveries or dumps included, allocates no
// packet: the free list holds the same packets after it as before. The
// second wave starts at 150 s, once the longest route a first wave installs
// (PBR's, held at most 120 s) has expired, so that it discovers again. A
// router whose second wave peaks above its first gets a first wave of two
// flows.
func TestTableDrivenPacketsRecycled(t *testing.T) {
	const perWave = 10
	for _, tc := range []struct {
		name    string
		factory netstack.RouterFactory
		control netstack.Kind // the control packet each wave sends
		flows   int           // flows in the first wave
		drops   bool          // the first wave drops data at the origin
	}{
		{"DSDV", dsdv.New(), netstack.KindUpdate, 1, true},
		{"AODV", aodv.New(), netstack.KindRREQ, 1, false},
		{"PBR", pbr.New(), netstack.KindRREQ, 2, false},
		{"Taleb", taleb.New(), netstack.KindRREQ, 2, false},
		{"Abedi", abedi.New(), netstack.KindRREQ, 1, false},
		{"NiuDe", niude.New(), netstack.KindRREQ, 1, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			handed := map[*netstack.Packet]bool{}
			w, ids := routetest.World(t, 1, routetest.Chain(8, 100, 20), func() netstack.Router {
				return handedOut{tc.factory(), handed}
			})
			n := len(ids)
			for f := 0; f < tc.flows; f++ {
				w.AddFlow(ids[0], ids[n-1], 0.5+0.1*float64(f), 0.5, perWave, 256)
			}
			w.AddFlow(ids[0], ids[n-1], 150, 0.5, perWave, 256)
			w.StartRun()
			if err := w.AdvanceTo(140); err != nil {
				t.Fatal(err)
			}
			c := w.Collector()
			first := tc.flows * perWave
			t.Logf("first wave: %d delivered, %d dropped, %d control, %d handed", c.DataDelivered, c.DataDropped, c.Control[tc.control], len(handed))
			if c.DataDelivered == 0 || (c.DataDropped > 0) != tc.drops || c.DataDelivered+c.DataDropped != first {
				t.Fatalf("the first wave ended with %d delivered and %d dropped of %d, want drops %v",
					c.DataDelivered, c.DataDropped, first, tc.drops)
			}
			netstack.CheckFreeList(t, w)
			warm := map[*netstack.Packet]bool{}
			for _, p := range netstack.FreeList(w) {
				warm[p] = true
			}
			for p := range handed {
				if !warm[p] {
					t.Fatalf("packet %p, handed to a router, is not back in the pool", p)
				}
			}
			sent := c.Control[tc.control]
			if err := w.AdvanceTo(180); err != nil {
				t.Fatal(err)
			}
			if c.DataDelivered+c.DataDropped != first+perWave || c.Control[tc.control] == sent {
				t.Fatalf("the second wave ended with %d delivered and %d dropped of %d, beside %d control packets",
					c.DataDelivered, c.DataDropped, first+perWave, c.Control[tc.control]-sent)
			}
			netstack.CheckFreeList(t, w)
			free := netstack.FreeList(w)
			for _, p := range free {
				if !warm[p] {
					t.Fatalf("the second wave allocated packet %p: the first left %d in the pool", p, len(warm))
				}
			}
			if len(free) != len(warm) {
				t.Fatalf("the pool held %d packets after the first wave and %d after the second", len(warm), len(free))
			}
		})
	}
}
