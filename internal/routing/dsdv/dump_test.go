package dsdv

import (
	"slices"
	"testing"

	"github.com/vanetlab/relroute/internal/geom"
	"github.com/vanetlab/relroute/internal/netstack"
	"github.com/vanetlab/relroute/internal/routing"
	"github.com/vanetlab/relroute/internal/routing/routetest"
)

// keeper is a DSDV router that keeps every table update it receives, the
// payload as received and a deep copy of it.
type keeper struct {
	*Router
	kept   *[]update
	copies *[][]advert
}

func (k keeper) HandlePacket(pkt *netstack.Packet) {
	if up, ok := pkt.Payload.(update); ok {
		*k.kept = append(*k.kept, up)
		*k.copies = append(*k.copies, slices.Clone(up.Routes))
	}
	k.Router.HandlePacket(pkt)
}

// A broadcast payload is shared by every receiver and must never change
// once sent: every update a node ever received still reads, at the end of
// the run, what it read on arrival. The chain drifts apart, so tables grow,
// break and are dumped again many times over.
func TestDumpIsASnapshot(t *testing.T) {
	var kept []update
	var copies [][]advert
	factory := New()
	vehicles := []routetest.Vehicle{
		{Pos: geom.V(0, 0)},
		{Pos: geom.V(150, 0), Vel: geom.V(2, 0)},
		{Pos: geom.V(300, 0), Vel: geom.V(4, 0)},
		{Pos: geom.V(450, 0), Vel: geom.V(8, 0)},
	}
	w, _ := routetest.World(t, 1, vehicles, func() netstack.Router {
		return keeper{factory().(*Router), &kept, &copies}
	})
	if err := w.Run(40); err != nil {
		t.Fatal(err)
	}
	multi := 0
	for i, up := range kept {
		if !slices.Equal(up.Routes, copies[i]) {
			t.Fatalf("update %d of %d changed after it was received: %v, was %v", i, len(kept), up.Routes, copies[i])
		}
		if len(up.Routes) > 1 {
			multi++
		}
	}
	if multi == 0 || w.Collector().RouteBreaks == 0 {
		t.Fatalf("%d updates, %d with more than the sender's own route, %d breaks: the run shows nothing",
			len(kept), multi, w.Collector().RouteBreaks)
	}
}

// dumpWorld is one DSDV node on its own with a table of n destinations,
// started: advertise can be called directly, and its broadcast reaches no
// one.
func dumpWorld(tb testing.TB, n int) (*netstack.World, *Router) {
	var r *Router
	factory := New()
	w, _ := routetest.World(tb, 1, routetest.Chain(1, 0, 0), func() netstack.Router {
		r = factory().(*Router)
		return r
	})
	w.StartRun()
	if err := w.AdvanceTo(0.5); err != nil {
		tb.Fatal(err)
	}
	for i := range n {
		r.table.Upsert(routing.Route{Dst: netstack.NodeID(100 + i), NextHop: 7, Hops: 1 + i%5, Seq: uint32(2 * i), Valid: true})
	}
	return w, r
}

// A periodic dump costs its payload's array and the box around it,
// whatever the table holds; the frame it goes out in comes from the pool.
func TestDumpAllocs(t *testing.T) {
	w, r := dumpWorld(t, 50)
	now := w.Engine().Now()
	dump := func() {
		r.advertise()
		now += 0.01 // the frame is done, and its packet back in the pool
		if err := w.AdvanceTo(now); err != nil {
			t.Fatal(err)
		}
	}
	dump()
	if got := testing.AllocsPerRun(100, dump); got > 2 {
		t.Fatalf("a dump of 50 destinations allocates %.1f objects, want at most 2", got)
	}
	if got := w.Collector().Control[netstack.KindUpdate]; got < 102 {
		t.Fatalf("%d updates sent, want at least the 102 called for", got)
	}
}

func BenchmarkAdvertise(b *testing.B) {
	w, r := dumpWorld(b, 50)
	now := w.Engine().Now()
	b.ReportAllocs()
	for b.Loop() {
		r.advertise()
		now += 0.01
		if err := w.AdvanceTo(now); err != nil {
			b.Fatal(err)
		}
	}
}
