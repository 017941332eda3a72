package netstack

import "github.com/vanetlab/relroute/internal/geom"

// refreshLocations samples every node's kinematics into the directory
// lookupPosition answers from, once per locationStaleness seconds.
func (w *World) refreshLocations() {
	for len(w.locPos) < len(w.nodes) {
		w.locPos = append(w.locPos, geom.Vec2{})
		w.locVel = append(w.locVel, geom.Vec2{})
		w.locOK = append(w.locOK, false)
	}
	for _, n := range w.nodes {
		w.locPos[n.id] = n.pos
		w.locVel[n.id] = n.vel
		// departed vehicles — and crashed nodes, whose radios are dark —
		// age out of the directory at the next refresh instead of
		// haunting it at their last position forever
		w.locOK[n.id] = !n.left && n.active
	}
}

// lookupPosition is API.LookupPosition: the directory's sample of dst or,
// when it holds no valid one (a node that joined or recovered since the
// last refresh), dst's true kinematics if it is up.
func (w *World) lookupPosition(dst NodeID) (geom.Vec2, geom.Vec2, bool) {
	if int(dst) >= len(w.locOK) || dst < 0 || !w.locOK[dst] {
		n := w.nodeByID(dst)
		if n == nil || n.left || !n.active {
			return geom.Vec2{}, geom.Vec2{}, false
		}
		return n.pos, n.vel, true
	}
	return w.locPos[dst], w.locVel[dst], true
}
