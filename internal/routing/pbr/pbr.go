// Package pbr implements Prediction-Based Routing (Namboodiri & Gao,
// marked PBR in the survey's mobility category, Sec. IV-B): route
// discovery carries the predicted lifetime of the path — the minimum of
// the per-link lifetimes solved from Eqn (4) — the destination selects the
// longest-lived candidate among the RREQs it collects, and the source
// preemptively rebuilds the route shortly before the predicted expiry, so
// data keeps flowing across what would otherwise be a visible break.
package pbr

import (
	"github.com/vanetlab/relroute/internal/link"
	"github.com/vanetlab/relroute/internal/netstack"
	"github.com/vanetlab/relroute/internal/routing"
)

const (
	// selectionWindow is how long, in seconds, the destination collects
	// candidate RREQs before answering.
	selectionWindow = 0.25
	// rebuildMargin is how many seconds before predicted route expiry the
	// source re-discovers.
	rebuildMargin = 1.0
)

// Router is a per-node PBR instance. A request's path is its predicted
// lifetime so far.
type Router struct {
	routing.Selective[float64]
}

var rule = routing.Rule[float64]{
	Timeout: 1.0, Window: selectionWindow, RequestSize: 52, ReplySize: 48,
	Start: link.Forever, Fold: fold, Route: routing.LifetimeRoute, Renew: renew,
}

// New returns a PBR router factory.
func New() netstack.RouterFactory {
	return func() netstack.Router {
		r := &Router{}
		r.Init(&rule)
		return r
	}
}

// fold takes in the lifetime of the link just traversed (from → self), as
// predicted by the reliability plane (absent neighbor = dead link): a path
// lives as long as its shortest link, and the destination answers the
// longest-lived copy. Every relay forwards its first copy at once.
func fold(api *netstack.API, from netstack.NodeID, lifetime float64) (float64, float64, float64, bool, float64) {
	lt := routing.MinLifetime(lifetime, routing.LinkLifetime(api, from))
	return lt, lt, lt, true, 0
}

// renew records the predicted path lifetime at the origin and rebuilds the
// route before it runs out: the PBR idea.
func renew(d *routing.Discovery, target netstack.NodeID, lifetime float64) {
	d.API.Metrics().OnPathLifetime(routing.CapLife(lifetime))
	d.RenewBefore(target, lifetime, rebuildMargin)
}
