// Package niude implements the QoS routing algorithm of Niu et al. (DeReQ,
// survey Secs. IV-B and VII-B, marked NiuDe): route selection "considers
// not only the impact of the link duration but also the traffic density",
// so that "a selected route is not only reliable but also compliant with
// delay requirements in multimedia application".
//
// Discovery is AODV-shaped, but each RREQ accumulates two QoS quantities:
//
//   - path reliability: the product of per-link availability probabilities
//     P(link survives the delay requirement), from the Sec. VII link-
//     duration model over the beaconed kinematics ("the reliability is on
//     the basis of a probability function that predicts the future status
//     of a wireless link");
//   - expected path delay: per-hop transmission plus a contention penalty
//     growing with local density (the denser the relay's neighborhood, the
//     longer the MAC wait).
//
// The destination collects candidates for a window and answers the most
// reliable path whose expected delay meets the bound; the source
// proactively rebuilds before the predicted break ("if a link is going to
// break, the route will be rebuilt before the link breaks").
package niude

import (
	"math"

	"github.com/vanetlab/relroute/internal/linkstate"
	"github.com/vanetlab/relroute/internal/netstack"
	"github.com/vanetlab/relroute/internal/routing"
)

const (
	// horizon is the survival time links are scored against in seconds:
	// reliability = P(link lives ≥ horizon).
	horizon = 4.0
	// speedSigma is the σ of the relative-speed uncertainty in m/s.
	speedSigma = 4.0
	// delayBound is the QoS delay requirement in seconds a candidate path
	// must meet.
	delayBound = 0.5
	// minSurvival is the availability below which a link counts as broken:
	// a relay drops a copy that crossed one rather than forward it over a
	// link almost certain to break. It is the tail mass, 1e-6, that the
	// survival integral once left out of its window.
	minSurvival = 1e-6
)

// Router is a per-node NiuDe/DeReQ instance.
type Router struct {
	routing.Selective[path]
}

// path accumulates a request's QoS path metrics.
type path struct {
	Reliability float64 // product of per-link availability so far
	Delay       float64 // expected forwarding delay so far, seconds
}

var rule = routing.Rule[path]{
	Timeout: 1.0, Window: 0.3, RequestSize: 56, ReplySize: 48,
	Start: path{Reliability: 1}, Fold: fold, Route: route, Renew: renew,
}

// New returns a NiuDe router factory.
func New() netstack.RouterFactory {
	return func() netstack.Router {
		r := &Router{}
		r.Init(&rule)
		return r
	}
}

// linkAvailability returns P(link to the beaconed neighbor survives the
// reliability horizon) under the Sec. VII model, via the reliability
// plane's shared survival helper, and 0 below minSurvival.
func linkAvailability(api *netstack.API, ls netstack.LinkState) float64 {
	obs := linkstate.Observer{Pos: api.Pos(), Vel: api.Vel(), Now: api.Now()}
	if p := linkstate.Survival(obs, ls, speedSigma, api.RangeEstimate(), 600, horizon); p >= minSurvival {
		return p
	}
	return 0
}

// hopDelay estimates this relay's forwarding delay: base transmission plus
// a contention penalty growing with local density (the traffic-density
// input of the NiuDe model).
func hopDelay(api *netstack.API) float64 {
	const base = 2e-3 // airtime + processing
	n := float64(api.NeighborCount())
	return base * (1 + n/8)
}

// fold takes in the link just traversed; the destination selects the most
// reliable copy that meets the delay bound. A relay does not forward a copy
// with zero availability in: it would only poison the product.
func fold(api *netstack.API, from netstack.NodeID, p path) (path, float64, float64, bool, float64) {
	avail := 0.0
	if ls, ok := api.LinkState(from); ok {
		avail = linkAvailability(api, ls)
	}
	next := path{Reliability: p.Reliability * avail, Delay: p.Delay + hopDelay(api)}
	return next, next.Reliability, admit(next.Delay, next.Reliability), next.Reliability > 0, 0
}

// admit is the destination's QoS admission: delay bound first, then
// reliability. A copy over the bound scores −1, which still opens the
// selection window but never wins it; if none meets the bound, nobody is
// answered.
func admit(delay, reliability float64) float64 {
	if delay <= delayBound {
		return reliability
	}
	return -1
}

// route is a 6-second table entry ranked by path reliability.
func route(api *netstack.API, dst, via netstack.NodeID, hops int, reliability float64) routing.Route {
	return routing.Route{
		Dst: dst, NextHop: via, Hops: hops,
		Expiry: api.Now() + 6, Valid: true, Lifetime: reliability * 100,
	}
}

// renew records the predicted path lifetime at the origin and rebuilds
// the route a second before the reliability horizon elapses ("the route
// will be rebuilt before the link breaks").
func renew(d *routing.Discovery, target netstack.NodeID, reliability float64) {
	d.API.Metrics().OnPathLifetime(horizon * math.Max(reliability, 0.01))
	d.RenewBefore(target, horizon, 1)
}
