// Package dsr implements Dynamic Source Routing (Johnson et al.), the
// source-routed member of the survey's connectivity category: RREQs flood
// outward accumulating the traversed node list, the destination returns
// the complete route in an RREP, and data packets carry their full route
// in the header. Route caches answer later discoveries, and RERRs truncate
// caches when a listed link dies.
package dsr

import (
	"slices"

	"github.com/vanetlab/relroute/internal/netstack"
	"github.com/vanetlab/relroute/internal/routing"
)

// Router is a per-node DSR instance.
type Router struct {
	routing.Discovery
	cache map[netstack.NodeID][]netstack.NodeID // dst → full path self→...→dst
	dup   *routing.DupCache
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
		r := &Router{
			cache: make(map[netstack.NodeID][]netstack.NodeID),
			dup:   routing.NewDupCache(15),
		}
		r.Init(r.Name(), 1.0, r.routed, r.forward, r.request)
		return r
	}
}

// Name implements netstack.Router.
func (r *Router) Name() string { return "DSR" }

// routed: a cached path always runs from this node to another one.
func (r *Router) routed(dst netstack.NodeID) bool { return len(r.cache[dst]) >= 2 }

// forward stamps the cached source route on a data packet and sends it.
func (r *Router) forward(pkt *netstack.Packet) {
	routing.SendSourceRouted(r.API, pkt, r.cache[pkt.Dst])
}

func (r *Router) request(dst netstack.NodeID, reqID uint64) bool {
	pkt := r.Control(netstack.KindRREQ, netstack.Broadcast, 40, rreq{
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
		r.handleData(pkt)
	}
}

func (r *Router) handleRREQ(pkt *netstack.Packet) {
	req, ok := pkt.Payload.(rreq)
	if !ok || req.Origin == r.API.Self() {
		return
	}
	if slices.Contains(req.Path, r.API.Self()) {
		return // loop
	}
	if r.dup.Seen(routing.DupKey{Origin: req.Origin, Seq: req.ReqID}, r.API.Now()) {
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
		r.cache[req.Origin] = back
		r.API.Send(path[len(path)-2], r.Control(netstack.KindRREP, req.Origin, 24+4*len(path),
			rrep{Origin: req.Origin, Target: req.Target, Path: path}))
		return
	}
	cp := req
	cp.Path = path
	pkt.Payload = cp
	pkt.TTL--
	if pkt.Expired() {
		return
	}
	pkt.Size += 4
	r.API.Send(netstack.Broadcast, pkt)
}

func (r *Router) handleRREP(pkt *netstack.Packet) {
	rep, ok := pkt.Payload.(rrep)
	if !ok {
		return
	}
	self := r.API.Self()
	idx := slices.Index(rep.Path, self)
	if idx < 0 {
		return
	}
	// learn the downstream sub-path
	r.cache[rep.Target] = append([]netstack.NodeID(nil), rep.Path[idx:]...)
	if self == rep.Origin {
		r.Answered(rep.Target)
		return
	}
	routing.RelayBack(r.API, pkt, rep.Path, idx)
}

func (r *Router) handleRERR(pkt *netstack.Packet) {
	er, ok := pkt.Payload.(rerr)
	if !ok {
		return
	}
	r.truncateCaches(er.From, er.To)
}

// truncateCaches removes every cached path that uses the dead link.
func (r *Router) truncateCaches(from, to netstack.NodeID) {
	for dst, path := range r.cache {
		for i := 0; i+1 < len(path); i++ {
			if path[i] == from && path[i+1] == to {
				delete(r.cache, dst)
				break
			}
		}
	}
}

func (r *Router) handleData(pkt *netstack.Packet) {
	routing.ForwardSourceRouted(r.API, pkt, r.brokenHop)
}

// brokenHop reports a source route that broke here, on the way to lost.
func (r *Router) brokenHop(hdr routing.SourceRoute, lost netstack.NodeID) {
	r.reportBreak(hdr.Path[0], r.API.Self(), lost)
}

// reportBreak unicasts an RERR toward the origin and truncates own caches.
func (r *Router) reportBreak(origin, from, to netstack.NodeID) {
	r.truncateCaches(from, to)
	path, ok := r.cache[origin]
	pkt := r.Control(netstack.KindRERR, origin, 28, rerr{From: from, To: to, Origin: origin})
	if ok && len(path) >= 2 {
		r.API.Send(path[1], pkt)
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
// link and send the RERR the in-band salvage check would have sent.
func (r *Router) OnSendFailed(pkt *netstack.Packet, to netstack.NodeID) {
	r.API.ForgetNeighbor(to)
	if hdr, ok := pkt.Payload.(routing.SourceRoute); ok && pkt.Data && len(hdr.Path) > 0 {
		r.API.Metrics().RouteBreaks++
		r.reportBreak(hdr.Path[0], r.API.Self(), to)
	} else {
		r.truncateCaches(r.API.Self(), to)
	}
	if pkt.Data {
		r.API.Drop(pkt)
	}
}

// CacheLen exposes the cache size for tests.
func (r *Router) CacheLen() int { return len(r.cache) }
