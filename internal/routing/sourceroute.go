package routing

import (
	"slices"

	"github.com/vanetlab/relroute/internal/netstack"
)

// SourceRoute is the header of a source-routed data packet (DSR and the
// ticket-probing routers): the whole route, origin ... destination
// inclusive. SourceRouted.Learn builds one when a route is installed, and
// every packet sent on that route carries a pointer to it, so the header is
// immutable: nothing writes Path once a packet may carry it. A hop finds its
// place by looking itself up in Path, which both route builders keep
// loop-free (DSR's RREQ rejects a node already on its path, and a ticket
// probe's candidates skip every node on theirs).
type SourceRoute struct {
	Path []netstack.NodeID
}

// SourceRouted is the source side of the source-routing protocols (DSR and
// the ticket routers): a Discovery whose route to a destination is a whole
// path, held as the SourceRoute header that every data packet sent on it
// carries. It supplies Routed and Forward of the protocol's DiscoveryHooks;
// the protocol adds Request.
type SourceRouted struct {
	Discovery
	routes map[netstack.NodeID]*SourceRoute // dst → self ... dst; made at the first route
}

// Routed reports whether a route to dst is held.
func (s *SourceRouted) Routed(dst netstack.NodeID) bool {
	_, ok := s.routes[dst]
	return ok
}

// Forward stamps the route to the data packet's destination on it and
// sends it.
func (s *SourceRouted) Forward(pkt *netstack.Packet) {
	SendSourceRouted(s.API, pkt, s.routes[pkt.Dst])
}

// Learn installs path, a packet header from now on, as the route to dst.
// Every route either protocol learns (DSR's reversed request path and
// reply sub-paths, a ticket reply's path) starts at this node and ends at
// dst, another node, so it has a first hop.
func (s *SourceRouted) Learn(dst netstack.NodeID, path []netstack.NodeID) {
	if s.routes == nil {
		s.routes = make(map[netstack.NodeID]*SourceRoute)
	}
	s.routes[dst] = &SourceRoute{Path: path}
}

// Forget drops the route to dst and reports whether one was held.
func (s *SourceRouted) Forget(dst netstack.NodeID) bool {
	_, ok := s.routes[dst]
	delete(s.routes, dst)
	return ok
}

// ForgetLink drops every route that crosses the link from → to, in that
// direction, and returns how many it dropped. It sends nothing, so the
// order in which it walks the routes shows nowhere.
func (s *SourceRouted) ForgetLink(from, to netstack.NodeID) int {
	n := 0
	for dst, hdr := range s.routes {
		if i := slices.Index(hdr.Path, from); i >= 0 && i+1 < len(hdr.Path) && hdr.Path[i+1] == to {
			delete(s.routes, dst)
			n++
		}
	}
	return n
}

// Route returns the path held to dst, this node first, and whether there
// is one. The path is a packet header: read it, never write it.
func (s *SourceRouted) Route(dst netstack.NodeID) ([]netstack.NodeID, bool) {
	hdr, ok := s.routes[dst]
	if !ok {
		return nil, false
	}
	return hdr.Path, true
}

// SendSourceRouted stamps hdr, whose route starts at this node, on a data
// packet and sends the packet to the route's second node. The route
// inflates the header by four bytes a hop.
func SendSourceRouted(api *netstack.API, pkt *netstack.Packet, hdr *SourceRoute) {
	pkt.Payload = hdr
	pkt.Size += 4 * len(hdr.Path)
	api.Send(hdr.Path[1], pkt)
}

// ForwardSourceRouted delivers a source-routed data packet addressed here,
// or sends it on to the next hop of its route while its TTL
// lasts. A packet whose route does not lead on from here is dropped. When
// the next hop is no longer a neighbour, the packet is dropped as a route
// break and broken receives the route and this node's index on it, for the
// protocol's break report. A delivered or dropped packet goes back to the
// stack's pool.
func ForwardSourceRouted(api *netstack.API, pkt *netstack.Packet, broken func(hdr *SourceRoute, idx int)) {
	if pkt.Dst == api.Self() {
		api.Deliver(pkt)
		api.Release(pkt)
		return
	}
	hdr := pkt.Payload.(*SourceRoute)
	idx := slices.Index(hdr.Path, api.Self())
	if idx < 0 || idx+1 >= len(hdr.Path) {
		api.Drop(pkt)
		return
	}
	nextHop := hdr.Path[idx+1]
	if !api.HasNeighbor(nextHop) {
		api.Metrics().RouteBreaks++
		broken(hdr, idx)
		api.Drop(pkt)
		return
	}
	pkt.TTL--
	if pkt.Expired() {
		api.Drop(pkt)
		return
	}
	api.Send(nextHop, pkt)
}

// RelayBack passes a route reply one hop back toward the origin along path,
// on which this node sits at index idx > 0: the origin ends a reply itself
// and never relays it. A reply whose TTL runs out ends here and goes back
// to the stack's pool.
func RelayBack(api *netstack.API, pkt *netstack.Packet, path []netstack.NodeID, idx int) {
	pkt.TTL--
	if pkt.Expired() {
		api.Release(pkt)
		return
	}
	api.Send(path[idx-1], pkt)
}
