// Package taleb implements the stable routing protocol of Taleb et al.
// (survey Sec. IV-B): vehicles are grouped into four classes by their
// velocity vector, links between same-group vehicles are considered
// long-lived and preferred during RREQ dissemination, the destination
// picks the most stable arriving path, and — per the survey — "a new route
// discovery is always initiated prior [to the] duration of the routing
// path, i.e. the shortest link duration".
package taleb

import (
	"math"

	"github.com/vanetlab/relroute/internal/link"
	"github.com/vanetlab/relroute/internal/netstack"
	"github.com/vanetlab/relroute/internal/routing"
)

// crossGroupDelay is the extra rebroadcast delay in seconds imposed on
// different-group relays, biasing discovery toward same-group paths
// without partitioning the network.
const crossGroupDelay = 0.08

// Router is a per-node Taleb instance.
type Router struct {
	routing.Selective[path]
}

// path is a request's stability so far.
type path struct {
	MinLife   float64 // shortest link duration on the path so far
	SameGroup int     // count of same-group links traversed
	Links     int
}

var rule = routing.Rule[path]{
	Timeout: 1.2, Window: 0.3, RequestSize: 56, ReplySize: 44,
	Start: path{MinLife: link.Forever}, Fold: fold, Route: routing.LifetimeRoute, Renew: renew,
}

// New returns a Taleb router factory.
func New() netstack.RouterFactory {
	return func() netstack.Router {
		r := &Router{}
		r.Init(&rule)
		return r
	}
}

// fold takes in the link just traversed: one reliability-plane read serves
// both the lifetime fold and the comparison of the previous hop's velocity
// group with this node's. The stability score the destination selects on
// is dominated by the same-group fraction, and the predicted lifetime
// breaks ties (the protocol's velocity-vector heuristic). Same-group relays
// forward at once; cross-group relays wait, letting stable paths win the
// dup-suppression race downstream.
func fold(api *netstack.API, from netstack.NodeID, p path) (path, float64, float64, bool, float64) {
	lifeFrom, sameGroup := 0.0, 0
	if ls, ok := api.LinkState(from); ok {
		lifeFrom = ls.Lifetime
		if link.HeadingGroup(ls.Vel) == link.HeadingGroup(api.Vel()) {
			sameGroup = 1
		}
	}
	next := path{MinLife: routing.MinLifetime(p.MinLife, lifeFrom),
		SameGroup: p.SameGroup + sameGroup, Links: p.Links + 1}
	score := float64(next.SameGroup)/float64(next.Links)*1e6 + math.Min(routing.CapLife(next.MinLife), 1e5)
	delay := 0.0
	if sameGroup == 0 {
		delay = crossGroupDelay
	}
	return next, next.MinLife, score, true, delay
}

// renew records the path duration at the origin and re-discovers prior to
// the shortest link duration elapsing.
func renew(d *routing.Discovery, target netstack.NodeID, lifetime float64) {
	d.API.Metrics().OnPathLifetime(routing.CapLife(lifetime))
	d.RenewBefore(target, lifetime, 0.8)
}
