package routing

import "github.com/vanetlab/relroute/internal/netstack"

// LinkLifetime predicts the remaining lifetime of the link between this
// node and neighbor id through the reliability plane: the value is the
// world's configured estimator's residual-lifetime prediction (the
// default composite estimator solves Eqn (4) on the kinematics advertised
// in the neighbor's latest beacon, memoized per mobility epoch). It
// returns 0 when id is not a live neighbor (the link is already
// considered down) and link.Forever when the link never breaks under the
// model.
func LinkLifetime(api *netstack.API, id netstack.NodeID) float64 {
	ls, ok := api.LinkState(id)
	if !ok {
		return 0
	}
	return ls.Lifetime
}

// MinLifetime folds a new link lifetime into a path lifetime accumulator
// (the paper's min-over-links composition).
func MinLifetime(pathSoFar, newLink float64) float64 {
	if newLink < pathSoFar {
		return newLink
	}
	return pathSoFar
}
