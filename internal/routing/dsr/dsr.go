// Package dsr implements Dynamic Source Routing (Johnson et al.), the
// source-routed member of the survey's connectivity category: RREQs flood
// outward accumulating the traversed node list, the destination returns
// the complete route in an RREP, and data packets carry their full route
// in the header. Route caches answer later discoveries, and RERRs truncate
// caches when a listed link dies.
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
	routing.Discovery
	cache map[netstack.NodeID]*routing.SourceRoute // dst → full path self→...→dst, the header data carries; made at the first path
	dup   routing.DupCache
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

// Routed: a cached path always runs from this node to another one.
func (r *Router) Routed(dst netstack.NodeID) bool {
	hdr, ok := r.cache[dst]
	return ok && len(hdr.Path) >= 2
}

// Forward stamps the cached source route on a data packet and sends it.
func (r *Router) Forward(pkt *netstack.Packet) {
	routing.SendSourceRouted(r.API, pkt, r.cache[pkt.Dst])
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
	if req.Origin == r.API.Self() ||
		slices.Contains(req.Path, r.API.Self()) || // loop
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
		r.learn(req.Origin, back)
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
	r.learn(rep.Target, rep.Path[idx:])
	if r.API.Self() == rep.Origin {
		r.Answered(rep.Target)
		r.API.Release(pkt)
		return
	}
	routing.RelayBack(r.API, pkt, rep.Path, idx)
}

// learn caches path, from this node to dst, as the route to dst.
func (r *Router) learn(dst netstack.NodeID, path []netstack.NodeID) {
	if r.cache == nil {
		r.cache = make(map[netstack.NodeID]*routing.SourceRoute)
	}
	r.cache[dst] = &routing.SourceRoute{Path: path}
}

func (r *Router) handleRERR(pkt *netstack.Packet) {
	er := pkt.Payload.(rerr)
	r.truncateCaches(er.From, er.To)
	r.API.Release(pkt)
}

// truncateCaches removes every cached path that uses the dead link.
func (r *Router) truncateCaches(from, to netstack.NodeID) {
	for dst, hdr := range r.cache {
		path := hdr.Path
		for i := 0; i+1 < len(path); i++ {
			if path[i] == from && path[i+1] == to {
				delete(r.cache, dst)
				break
			}
		}
	}
}

// brokenHop reports a source route that broke here, at index idx, on the
// way to the next hop.
func (r *Router) brokenHop(hdr *routing.SourceRoute, idx int) {
	r.reportBreak(hdr.Path[0], r.API.Self(), hdr.Path[idx+1])
}

// reportBreak unicasts an RERR toward the origin and truncates own caches.
func (r *Router) reportBreak(origin, from, to netstack.NodeID) {
	r.truncateCaches(from, to)
	pkt := routing.NewPacket(r.API, netstack.KindRERR, origin, 28, rerr{From: from, To: to, Origin: origin})
	if r.Routed(origin) {
		r.API.Send(r.cache[origin].Path[1], pkt)
		return
	}
	// fall back to a 1-hop broadcast so at least upstream neighbors learn
	pkt.TTL = 1
	r.API.Send(netstack.Broadcast, pkt)
}

// OnNeighborExpired implements netstack.Router.
func (r *Router) OnNeighborExpired(id netstack.NodeID) {
	r.truncateCaches(r.API.Self(), id)
}

// OnSendFailed implements netstack.Router: truncate caches over the dead
// link and send the RERR the in-band salvage check would have sent. The
// packet, data or control, ends here.
func (r *Router) OnSendFailed(pkt *netstack.Packet, to netstack.NodeID) {
	r.API.ForgetNeighbor(to)
	if hdr, ok := pkt.Payload.(*routing.SourceRoute); ok && pkt.Kind == netstack.KindData {
		r.API.Metrics().RouteBreaks++
		r.reportBreak(hdr.Path[0], r.API.Self(), to)
	} else {
		r.truncateCaches(r.API.Self(), to)
	}
	r.API.Drop(pkt)
}

// CacheLen exposes the cache size for tests.
func (r *Router) CacheLen() int { return len(r.cache) }
