package routing_test

import (
	"slices"
	"testing"

	"github.com/vanetlab/relroute/internal/netstack"
	"github.com/vanetlab/relroute/internal/routing"
	"github.com/vanetlab/relroute/internal/routing/routetest"
)

// TestRelayCarriesTheFoldedPath runs discoveries down a five-node chain,
// where each node hears only its neighbours, under a rule whose path counts
// the links a request has crossed. Every copy the target gets has come
// over three links before its own, so it must carry 3: a relay passes on
// the path it folded, not the one it was handed.
func TestRelayCarriesTheFoldedPath(t *testing.T) {
	var target netstack.NodeID
	var arrived []int
	rule := routing.Rule[int]{
		Timeout: 1, Window: 0.1, RequestSize: 48, ReplySize: 44,
		Fold: func(api *netstack.API, _ netstack.NodeID, links int) (int, float64, float64, bool, float64) {
			if api.Self() == target {
				arrived = append(arrived, links)
			}
			return links + 1, 10, 1, true, 0
		},
		Route: routing.LifetimeRoute,
		Renew: func(*routing.Discovery, netstack.NodeID, float64) {},
	}
	w, ids := routetest.World(t, 1, routetest.Chain(5, 150, 20), func() netstack.Router {
		r := &routing.Selective[int]{}
		r.Init(&rule)
		return r
	})
	target = ids[4]
	routetest.MustDeliverAll(t, w, ids[0], target, 3)
	if len(arrived) == 0 || slices.ContainsFunc(arrived, func(n int) bool { return n != 3 }) {
		t.Fatalf("the target got copies carrying %v links, want 3 each", arrived)
	}
}

// reader is a Selective router that logs every request record it is
// handed, as it reads on arrival.
type reader struct {
	*routing.Selective[int]
	log *[]readRequest
}

type readRequest struct {
	at  netstack.NodeID
	rec *routing.Request[int]
	req routing.Request[int]
}

func (r reader) HandlePacket(pkt *netstack.Packet) {
	if req, ok := pkt.Payload.(*routing.Request[int]); ok {
		*r.log = append(*r.log, readRequest{r.API.Self(), req, *req})
	}
	r.Selective.HandlePacket(pkt)
}

// TestRequestRecordOutlivesItsReceivers has the middle of three nodes ask
// for three targets, the second and third at once, and both ends read every
// request and pass none on. Each end reads each request intact, in the
// order it was made: the record of the first comes back only once its
// frame is done, and is then reused by the second, while the third, made
// before the second's frame is done, has a record of its own.
func TestRequestRecordOutlivesItsReceivers(t *testing.T) {
	var log []readRequest
	var routers []*routing.Selective[int]
	rule := routing.Rule[int]{
		Timeout: 1, Window: 0.1, RequestSize: 48, ReplySize: 44,
		Fold: func(*netstack.API, netstack.NodeID, int) (int, float64, float64, bool, float64) {
			return 0, 10, 1, false, 0
		},
		Route: routing.LifetimeRoute,
		Renew: func(*routing.Discovery, netstack.NodeID, float64) {},
	}
	w, ids := routetest.World(t, 1, routetest.Chain(3, 150, 0), func() netstack.Router {
		r := &routing.Selective[int]{}
		r.Init(&rule)
		routers = append(routers, r)
		return reader{r, &log}
	})
	w.StartRun()
	if err := w.AdvanceTo(0.5); err != nil {
		t.Fatal(err)
	}
	asker := routers[1]
	asker.Originate(101, 64)
	if err := w.AdvanceTo(0.6); err != nil {
		t.Fatal(err)
	}
	asker.Originate(102, 64)
	asker.Originate(103, 64)
	if err := w.AdvanceTo(0.7); err != nil {
		t.Fatal(err)
	}
	recs := map[netstack.NodeID][]*routing.Request[int]{}
	for _, end := range []netstack.NodeID{ids[0], ids[2]} {
		var targets []netstack.NodeID
		for _, r := range log {
			if r.at == end {
				targets = append(targets, r.req.Target)
				recs[end] = append(recs[end], r.rec)
			}
		}
		if want := []netstack.NodeID{101, 102, 103}; !slices.Equal(targets, want) {
			t.Fatalf("node %d read requests for %v, want %v", end, targets, want)
		}
	}
	if got := recs[ids[0]]; !slices.Equal(got, recs[ids[2]]) || got[0] != got[1] || got[1] == got[2] {
		t.Fatal("a request's two readers read different records, the first record was not reused, or two requests in flight shared one")
	}
}
