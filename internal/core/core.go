// Package core implements the paper's primary contribution: the
// reliable-routing framework built from link-stability prediction.
//
// It provides three things:
//
//  1. Link stability metrics (Metric): the expected link duration and the
//     mean link duration ("stability") computed from the probability model
//     of Sec. VII over the kinematic link-lifetime solution of Sec. IV-A
//     (Eqns 1–4), plus the deterministic point prediction.
//  2. The ticket-based probing router (TicketRouter) of Yan et al. [27]:
//     instead of brute-force flooding, a bounded number of probe tickets
//     is split, divide-and-conquer, among the most stable candidate links;
//     the destination returns the most stable probed path; the source
//     routes data over it and rebuilds shortly before the predicted
//     expiry. With the mean-duration metric and a stability constraint
//     this is the paper's TBP-SS.
//  3. The taxonomy registry (Taxonomy) mirroring Fig. 1, mapping every
//     surveyed protocol to its category and, where this repository
//     implements it, to the implementing package.
package core

import (
	"fmt"
	"math"

	"github.com/vanetlab/relroute/internal/geom"
	"github.com/vanetlab/relroute/internal/link"
	"github.com/vanetlab/relroute/internal/linkstate"
	"github.com/vanetlab/relroute/internal/netstack"
)

// Metric selects the link-stability estimator used by the ticket router.
type Metric int

const (
	// MetricExpectedDuration is E[T] under a normal relative-speed model
	// around the observed kinematics — the metric of the paper's TBP
	// variant ("expected link duration ... computed by a probability
	// model").
	MetricExpectedDuration Metric = iota + 1
	// MetricMeanDuration is the mean link duration the paper defines as
	// "stability" — the TBP-SS metric. It uses a wider uncertainty model
	// than MetricExpectedDuration (future speed drift, not just current
	// estimation error).
	MetricMeanDuration
	// MetricDeterministic is the point solution of Eqn (4) with the
	// beaconed kinematics taken as exact; the ablation benches use it to
	// quantify what the probability model buys.
	MetricDeterministic
)

// String implements fmt.Stringer.
func (m Metric) String() string {
	switch m {
	case MetricExpectedDuration:
		return "expected-duration"
	case MetricMeanDuration:
		return "mean-duration"
	case MetricDeterministic:
		return "deterministic"
	default:
		return fmt.Sprintf("metric(%d)", int(m))
	}
}

// StabilityParams configures the probability model behind the metrics.
type StabilityParams struct {
	// SpeedSigma is the σ of the relative-speed uncertainty in m/s for
	// MetricExpectedDuration (default 2).
	SpeedSigma float64
	// DriftSigma is the wider σ for MetricMeanDuration (default 5),
	// modelling future speed changes over the path's life.
	DriftSigma float64
	// Horizon truncates duration statistics in seconds (default 300).
	Horizon float64
}

func (p StabilityParams) speedSigma() float64 {
	if p.SpeedSigma <= 0 {
		return 2
	}
	return p.SpeedSigma
}

func (p StabilityParams) driftSigma() float64 {
	if p.DriftSigma <= 0 {
		return 5
	}
	return p.DriftSigma
}

// sigma is the relative-speed σ of the probability metric m.
func (p StabilityParams) sigma(m Metric) float64 {
	if m == MetricMeanDuration {
		return p.driftSigma()
	}
	return p.speedSigma()
}

func (p StabilityParams) horizon() float64 {
	if p.Horizon <= 0 {
		return 300
	}
	return p.Horizon
}

// LinkStability computes the chosen stability metric for the directed link
// a→b given positions and velocities (from beacons) and the communication
// range r. Larger is more stable. The result is in seconds.
func LinkStability(m Metric, params StabilityParams, aPos, aVel, bPos, bVel geom.Vec2, r float64) float64 {
	switch m {
	case MetricDeterministic:
		t := link.LifetimeVec(aPos, aVel, bPos, bVel, r)
		if t == link.Forever {
			return params.horizon()
		}
		if t > params.horizon() {
			return params.horizon()
		}
		return t
	case MetricExpectedDuration, MetricMeanDuration:
		obs := linkstate.Observer{Pos: aPos, Vel: aVel}
		nb := linkstate.LinkState{Pos: bPos, Vel: bVel}
		return linkstate.ExpectedDuration(obs, nb, params.sigma(m), r, params.horizon())
	default:
		return 0
	}
}

// PathStability composes link stabilities with the paper's min rule: "the
// lifetime of the routing path is the minimum lifetime of all links
// involved in the routing path".
func PathStability(links []float64) float64 { return link.PathLifetime(links) }

// linkStateStability evaluates the metric for the link self→neighbor on a
// reliability-plane link state (from API.LinkState/LinkStates): the
// deterministic metric consumes the plane's memoized residual-lifetime
// prediction directly, and the probability metrics run the shared
// Sec. VII expected-duration helper over the beaconed kinematics. The
// router always runs the model on its default parameters.
func linkStateStability(api *netstack.API, m Metric, ls netstack.LinkState) float64 {
	var params StabilityParams
	switch m {
	case MetricDeterministic:
		t := ls.Lifetime
		if t > params.horizon() {
			return params.horizon()
		}
		return t
	case MetricExpectedDuration, MetricMeanDuration:
		obs := linkstate.Observer{Pos: api.Pos(), Vel: api.Vel(), Now: api.Now()}
		return linkstate.ExpectedDuration(obs, ls, params.sigma(m), api.RangeEstimate(), params.horizon())
	default:
		return 0
	}
}

// linkStateStabilityBound is a number never below what linkStateStability
// returns for the same link: the probability metrics' closed-form bound,
// +Inf for any other metric.
func linkStateStabilityBound(api *netstack.API, m Metric, ls netstack.LinkState) float64 {
	if m != MetricExpectedDuration && m != MetricMeanDuration {
		return math.Inf(1)
	}
	var params StabilityParams
	obs := linkstate.Observer{Pos: api.Pos(), Vel: api.Vel(), Now: api.Now()}
	return linkstate.ExpectedDurationBound(obs, ls, params.sigma(m), api.RangeEstimate(), params.horizon())
}
