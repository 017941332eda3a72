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
