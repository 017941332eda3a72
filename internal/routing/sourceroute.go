package routing

import (
	"slices"

	"github.com/vanetlab/relroute/internal/netstack"
)

// SourceRoute is the header of a source-routed data packet (DSR and the
// ticket-probing routers): the whole route, origin ... destination
// inclusive. A router builds one when it installs a route, and every packet
// sent on that route carries a pointer to it, so the header is immutable:
// nothing writes Path once a packet may carry it. A hop finds its place by
// looking itself up in Path, which both route builders keep loop-free (DSR's
// RREQ rejects a node already on its path, and a ticket probe's candidates
// skip every node on theirs).
type SourceRoute struct {
	Path []netstack.NodeID
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
// on which this node sits at index idx. The origin (idx 0) ends the relay,
// and so does the reply's TTL running out; either hands the reply back to
// the stack's pool.
func RelayBack(api *netstack.API, pkt *netstack.Packet, path []netstack.NodeID, idx int) {
	if idx == 0 {
		api.Release(pkt)
		return
	}
	pkt.TTL--
	if pkt.Expired() {
		api.Release(pkt)
		return
	}
	api.Send(path[idx-1], pkt)
}
