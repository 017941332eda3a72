package dsdv

import (
	"slices"
	"testing"

	"github.com/vanetlab/relroute/internal/geom"
	"github.com/vanetlab/relroute/internal/netstack"
	"github.com/vanetlab/relroute/internal/routing"
	"github.com/vanetlab/relroute/internal/routing/routetest"
)

// heard is one table update a keeper read on arrival: its sender and UID,
// the record it came in and a copy of its routes.
type heard struct {
	from   netstack.NodeID
	uid    uint64
	rec    *update
	routes []advert
}

// keeper is a DSDV router that logs every table update it receives as it
// reads on arrival.
type keeper struct {
	*Router
	log *[]heard
}

func (k keeper) HandlePacket(pkt *netstack.Packet) {
	if up, ok := pkt.Payload.(*update); ok {
		*k.log = append(*k.log, heard{pkt.From, pkt.UID, up, slices.Clone(up.Routes)})
	}
	k.Router.HandlePacket(pkt)
}

// A broadcast payload is read by every receiver as its sender made it,
// although its record is reused once its frame is done: every receiver of
// one update reads the same routes, a periodic dump starts with its
// sender's own route at an even sequence number that grows from dump to
// dump, and a break advertises only unreachable routes at odd ones. The
// chain drifts apart, so tables grow, break and are dumped again many
// times over.
func TestDumpIsASnapshot(t *testing.T) {
	var log []heard
	factory := New()
	vehicles := []routetest.Vehicle{
		{Pos: geom.V(0, 0)},
		{Pos: geom.V(150, 0), Vel: geom.V(2, 0)},
		{Pos: geom.V(300, 0), Vel: geom.V(4, 0)},
		{Pos: geom.V(450, 0), Vel: geom.V(8, 0)},
	}
	w, _ := routetest.World(t, 1, vehicles, func() netstack.Router {
		return keeper{factory().(*Router), &log}
	})
	if err := w.Run(40); err != nil {
		t.Fatal(err)
	}
	first := map[uint64]heard{}
	lastSeq := map[netstack.NodeID]uint32{}
	records := map[*update]bool{}
	multi, shared, breaks := 0, 0, 0
	for _, h := range log {
		records[h.rec] = true
		if f, ok := first[h.uid]; ok {
			if !slices.Equal(h.routes, f.routes) {
				t.Fatalf("update %d from %d reads %v at one receiver and %v at another", h.uid, h.from, h.routes, f.routes)
			}
			shared++
			continue
		}
		first[h.uid] = h
		if own := h.routes[0]; own.Dst == h.from {
			if own.Hops != 0 || own.Seq%2 != 0 || own.Seq <= lastSeq[h.from] {
				t.Fatalf("dump %d from %d starts with %+v after sequence %d", h.uid, h.from, own, lastSeq[h.from])
			}
			lastSeq[h.from] = own.Seq
			if len(h.routes) > 1 {
				multi++
			}
			continue
		}
		for _, ad := range h.routes {
			if ad.Hops != -1 || ad.Seq%2 != 1 {
				t.Fatalf("break %d from %d advertises %v", h.uid, h.from, h.routes)
			}
		}
		breaks++
	}
	if multi == 0 || breaks == 0 || shared == 0 || len(records) >= len(first) {
		t.Fatalf("%d updates, %d with more than the sender's own route, %d breaks, %d read twice, in %d records: the run shows nothing",
			len(first), multi, breaks, shared, len(records))
	}
}

// Two dumps made before the first one's frame is done go out in records
// of their own: the receiver reads each dump's own sequence number, in
// order, and the record of the first comes back for the next dump.
func TestQueuedDumpKeepsItsRecord(t *testing.T) {
	var log []heard
	var routers []*Router
	factory := New()
	w, _ := routetest.World(t, 1, routetest.Chain(2, 150, 0), func() netstack.Router {
		r := factory().(*Router)
		routers = append(routers, r)
		return keeper{r, &log}
	})
	w.StartRun()
	if err := w.AdvanceTo(5); err != nil {
		t.Fatal(err)
	}
	r := routers[0]
	log = log[:0]
	r.Tick()
	r.Tick()
	if err := w.AdvanceTo(5.1); err != nil {
		t.Fatal(err)
	}
	r.Tick()
	if err := w.AdvanceTo(5.2); err != nil {
		t.Fatal(err)
	}
	var seqs []uint32
	var recs []*update
	for _, h := range log {
		if h.from == r.API.Self() {
			seqs, recs = append(seqs, h.routes[0].Seq), append(recs, h.rec)
		}
	}
	if want := []uint32{r.seq - 4, r.seq - 2, r.seq}; !slices.Equal(seqs, want) {
		t.Fatalf("the receiver read sequence numbers %v, want %v", seqs, want)
	}
	if recs[0] == recs[1] || recs[2] != recs[1] {
		t.Fatal("the queued dumps shared a record, or the third dump did not reuse the last one given back")
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

// A periodic dump allocates nothing once its record is warm, whatever the
// table holds: the record and its array come back when the frame is done,
// and the frame it goes out in comes from the pool.
func TestDumpAllocs(t *testing.T) {
	w, r := dumpWorld(t, 50)
	now := w.Engine().Now()
	dump := func() {
		r.Tick()
		now += 0.01 // the frame is done, and its packet back in the pool
		if err := w.AdvanceTo(now); err != nil {
			t.Fatal(err)
		}
	}
	dump()
	if got := testing.AllocsPerRun(100, dump); got != 0 {
		t.Fatalf("a dump of 50 destinations allocates %.1f objects, want 0", got)
	}
	if got := w.Collector().Control[netstack.KindUpdate]; got < 102 {
		t.Fatalf("%d updates sent, want at least the 102 called for", got)
	}
}

// Attaching arms the periodic dump with the router itself as the job, so
// it allocates nothing.
func TestAttachAllocs(t *testing.T) {
	_, r := dumpWorld(t, 0)
	if got := testing.AllocsPerRun(100, func() { r.Attach(r.API) }); got != 0 {
		t.Fatalf("an attach allocates %.1f objects, want 0", got)
	}
}

func BenchmarkAdvertise(b *testing.B) {
	w, r := dumpWorld(b, 50)
	now := w.Engine().Now()
	b.ReportAllocs()
	for b.Loop() {
		r.Tick()
		now += 0.01
		if err := w.AdvanceTo(now); err != nil {
			b.Fatal(err)
		}
	}
}
