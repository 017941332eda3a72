// Package dsr implements Dynamic Source Routing (Johnson et al.), the
// source-routed member of the survey's connectivity category: RREQs flood
// outward accumulating the traversed node list, the destination returns
// the complete route in an RREP, and data packets carry their full route
// in the header. Routes are cached in routing.SourceRouted, as the ticket
// routers' are, and RERRs truncate the cache when a listed link dies.
//
// A packet has one holder at a time: every packet whose journey ends here —
// a request already seen or looping, a reply at its origin, an error once
// read, a delivery or drop — goes back to the stack's pool.
package dsr

import (
	"slices"

	"github.com/vanetlab/relroute/internal/netstack"
	"github.com/vanetlab/relroute/internal/routing"
)

// Router is a per-node DSR instance.
type Router struct {
	// the route cache: dst → self ... dst
	routing.SourceRouted
	dup routing.DupCache
}

// rreq accumulates the traversed route.
type rreq struct {
	Origin netstack.NodeID
	ReqID  uint64
	Target netstack.NodeID
	Path   []netstack.NodeID // nodes traversed so far, origin first
}

// rrep carries the complete discovered route.
type rrep struct {
	Origin netstack.NodeID
	Target netstack.NodeID
	Path   []netstack.NodeID // origin ... target inclusive
}

// rerr names the broken link.
type rerr struct {
	From, To netstack.NodeID
	Origin   netstack.NodeID
}

// New returns a DSR router factory.
func New() netstack.RouterFactory {
	return func() netstack.Router {
		r := &Router{dup: *routing.NewDupCache(15)}
		r.Init(1.0, r)
		return r
	}
}

func (r *Router) Request(dst netstack.NodeID, reqID uint64) bool {
	pkt := routing.NewPacket(r.API, netstack.KindRREQ, netstack.Broadcast, 40, rreq{
		Origin: r.API.Self(), ReqID: reqID, Target: dst,
		Path: []netstack.NodeID{r.API.Self()},
	})
	r.dup.Seen(routing.DupKey{Origin: pkt.Src, Seq: reqID}, r.API.Now())
	r.API.Send(netstack.Broadcast, pkt)
	return true
}

// HandlePacket implements netstack.Router.
func (r *Router) HandlePacket(pkt *netstack.Packet) {
	switch pkt.Kind {
	case netstack.KindRREQ:
		r.handleRREQ(pkt)
	case netstack.KindRREP:
		r.handleRREP(pkt)
	case netstack.KindRERR:
		r.handleRERR(pkt)
	case netstack.KindData:
		routing.ForwardSourceRouted(r.API, pkt, r.brokenHop)
	}
}

func (r *Router) handleRREQ(pkt *netstack.Packet) {
	req := pkt.Payload.(rreq)
	if slices.Contains(req.Path, r.API.Self()) || // a loop, or back at its origin, which heads the path
		r.dup.Seen(routing.DupKey{Origin: req.Origin, Seq: req.ReqID}, r.API.Now()) {
		r.API.Release(pkt)
		return
	}
	// copy-on-write path extension
	path := make([]netstack.NodeID, 0, len(req.Path)+1)
	path = append(path, req.Path...)
	path = append(path, r.API.Self())
	if req.Target == r.API.Self() {
		// cache the reverse route and reply with the full path, unicast
		// back along it
		back := slices.Clone(path)
		slices.Reverse(back)
		r.Learn(req.Origin, back)
		r.API.Send(path[len(path)-2], routing.NewPacket(r.API, netstack.KindRREP, req.Origin, 24+4*len(path),
			rrep{Origin: req.Origin, Target: req.Target, Path: path}))
		r.API.Release(pkt)
		return
	}
	cp := req
	cp.Path = path
	pkt.Payload = cp
	pkt.TTL--
	if pkt.Expired() {
		r.API.Release(pkt)
		return
	}
	pkt.Size += 4
	r.API.Send(netstack.Broadcast, pkt)
}

func (r *Router) handleRREP(pkt *netstack.Packet) {
	rep := pkt.Payload.(rrep)
	idx := slices.Index(rep.Path, r.API.Self()) // a reply is unicast along its path
	// learn the downstream sub-path
	r.Learn(rep.Target, rep.Path[idx:])
	if r.API.Self() == rep.Origin {
		r.Answered(rep.Target)
		r.API.Release(pkt)
		return
	}
	routing.RelayBack(r.API, pkt, rep.Path, idx)
}

func (r *Router) handleRERR(pkt *netstack.Packet) {
	er := pkt.Payload.(rerr)
	r.ForgetLink(er.From, er.To)
	r.API.Release(pkt)
}

// brokenHop reports a source route that broke here, at index idx, on the
// way to the next hop.
func (r *Router) brokenHop(hdr *routing.SourceRoute, idx int) {
	r.reportBreak(hdr.Path[0], r.API.Self(), hdr.Path[idx+1])
}

// reportBreak forgets the routes over the dead link from → to and sends an
// RERR naming it to the first hop of this node's route to origin, or, with
// no route, broadcasts it one hop. A receiver relays it no further, so it
// reaches the origin only from a break one hop away.
func (r *Router) reportBreak(origin, from, to netstack.NodeID) {
	r.ForgetLink(from, to)
	pkt := routing.NewPacket(r.API, netstack.KindRERR, origin, 28, rerr{From: from, To: to, Origin: origin})
	if path, ok := r.Route(origin); ok {
		r.API.Send(path[1], pkt)
		return
	}
	// fall back to a 1-hop broadcast so at least upstream neighbors learn
	pkt.TTL = 1
	r.API.Send(netstack.Broadcast, pkt)
}

// OnNeighborExpired implements netstack.Router.
func (r *Router) OnNeighborExpired(id netstack.NodeID) {
	r.ForgetLink(r.API.Self(), id)
}

// OnSendFailed implements netstack.Router: forget the routes over the dead
// link and send the RERR the in-band salvage check would have sent. The
// packet, data or control, ends here.
func (r *Router) OnSendFailed(pkt *netstack.Packet, to netstack.NodeID) {
	r.API.ForgetNeighbor(to)
	if hdr, ok := pkt.Payload.(*routing.SourceRoute); ok && pkt.Kind == netstack.KindData {
		r.API.Metrics().RouteBreaks++
		r.reportBreak(hdr.Path[0], r.API.Self(), to)
	} else {
		r.ForgetLink(r.API.Self(), to)
	}
	r.API.Drop(pkt)
}
