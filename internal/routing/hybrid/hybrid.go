// Package hybrid implements the combination the survey's conclusion
// proposes: "probability-model-based routing can be combined with
// mobility-based routing as the latter can strengthen the former when the
// traffic motions change." The router is the core ticket-probing machinery
// (TBP-SS) with a blended link scorer: the probability-model mean duration
// is averaged with the deterministic Eqn (4) lifetime, and the Fig. 4
// direction classifier gates the result — opposite-direction links are
// never scored above their deterministic prediction, because the
// probability model's symmetric uncertainty is known-wrong for them (their
// geometry only ever gets worse).
package hybrid

import (
	"math"

	"github.com/vanetlab/relroute/internal/core"
	"github.com/vanetlab/relroute/internal/geom"
	"github.com/vanetlab/relroute/internal/link"
	"github.com/vanetlab/relroute/internal/netstack"
)

// blend is the weight of the probability-model metric; the remainder comes
// from the deterministic mobility prediction.
const blend = 0.5

// Score is the hybrid link metric over the probability-model mean duration
// stability the ticket router reads for the link, exported for the tests.
// It is non-decreasing in stability, as core.WithScorer requires.
func Score(api *netstack.API, nb netstack.Neighbor, stability float64) float64 {
	return blended(api.Pos(), api.Vel(), nb.Pos, nb.Vel, api.RangeEstimate(), stability)
}

// blended is Score over the two ends' kinematics and the range r.
func blended(aPos, aVel, bPos, bVel geom.Vec2, r, stability float64) float64 {
	det := core.LinkStability(core.MetricDeterministic, core.StabilityParams{}, aPos, aVel, bPos, bVel, r)
	score := blend*stability + (1-blend)*det
	if link.Classify(aPos, aVel, bPos, bVel) == link.OppositeDirection {
		score = math.Min(score, det)
	}
	return score
}

// New returns a hybrid probability+mobility router factory probing with the
// given ticket budget: the core ticket router, with TBP-SS's stability
// threshold applied to the blended score, under its own name, so metrics
// and taxonomy listings distinguish it from plain TBP-SS.
func New(tickets int) netstack.RouterFactory {
	return core.NewTicketRouter(core.WithTickets(tickets), core.WithScorer(Score))
}
