package routing

import "github.com/vanetlab/relroute/internal/netstack"

// SourceRoute is the header of a source-routed data packet (DSR and the
// ticket-probing routers): the whole route, and where along it the packet
// is.
type SourceRoute struct {
	Path []netstack.NodeID // origin ... destination inclusive
	Next int               // index in Path of the hop the packet was sent to
}

// SendSourceRouted stamps a copy of path, which starts at this node, on a
// data packet and sends the packet to path[1]. The route inflates the
// header by four bytes a hop.
func SendSourceRouted(api *netstack.API, pkt *netstack.Packet, path []netstack.NodeID) {
	pkt.Payload = SourceRoute{Path: append([]netstack.NodeID(nil), path...), Next: 1}
	pkt.Size += 4 * len(path)
	api.Send(path[1], pkt)
}

// ForwardSourceRouted delivers a source-routed data packet addressed here,
// or sends it on to the next hop of its route while its TTL lasts. A packet
// without a route, or past the route's end, is dropped. When the next hop is
// no longer a neighbour, the packet is dropped as a route break and broken
// receives the route and the lost hop, for the protocol's break report.
func ForwardSourceRouted(api *netstack.API, pkt *netstack.Packet, broken func(hdr SourceRoute, lost netstack.NodeID)) {
	if pkt.Dst == api.Self() {
		api.Deliver(pkt)
		return
	}
	hdr, ok := pkt.Payload.(SourceRoute)
	if !ok {
		api.Drop(pkt)
		return
	}
	next := hdr.Next + 1
	if next >= len(hdr.Path) {
		api.Drop(pkt)
		return
	}
	nextHop := hdr.Path[next]
	if !api.HasNeighbor(nextHop) {
		api.Metrics().RouteBreaks++
		api.Drop(pkt)
		broken(hdr, nextHop)
		return
	}
	pkt.TTL--
	if pkt.Expired() {
		api.Drop(pkt)
		return
	}
	hdr.Next = next
	pkt.Payload = hdr
	api.Send(nextHop, pkt)
}

// RelayBack passes a route reply one hop back toward the origin along path,
// on which this node sits at index idx. The origin (idx 0) ends the relay,
// and so does the reply's TTL running out.
func RelayBack(api *netstack.API, pkt *netstack.Packet, path []netstack.NodeID, idx int) {
	if idx == 0 {
		return
	}
	pkt.TTL--
	if pkt.Expired() {
		return
	}
	api.Send(path[idx-1], pkt)
}
