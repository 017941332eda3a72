// Package dsdv implements Destination-Sequenced Distance-Vector routing
// (Perkins & Bhagwat), the proactive member of the survey's connectivity
// category: every node periodically broadcasts its route table stamped
// with per-destination sequence numbers; fresher sequence numbers displace
// stale routes and break count-to-infinity. Its cost profile — constant
// background control traffic independent of data demand — is one of the
// "overhead" cons of Table I row 1.
package dsdv

import (
	"github.com/vanetlab/relroute/internal/netstack"
	"github.com/vanetlab/relroute/internal/routing"
)

// updateInterval is the periodic full-dump interval in seconds.
const updateInterval = 2.0

// Router is a per-node DSDV instance.
type Router struct {
	netstack.Base
	table routing.Table
	seq   uint32 // own even sequence number
	// dsts is the destinations one dump or one break reads, reused from
	// call to call; the routes they become are never reused.
	dsts []netstack.NodeID
}

// advert is one advertised route.
type advert struct {
	Dst  netstack.NodeID
	Seq  uint32
	Hops int // hops from the advertiser; -1 marks unreachable
}

// update is the periodic table dump payload.
type update struct {
	Routes []advert
}

// New returns a DSDV router factory.
func New() netstack.RouterFactory {
	return func() netstack.Router { return &Router{} }
}

// Attach implements netstack.Router and starts the periodic advertiser.
func (r *Router) Attach(api *netstack.API) {
	r.Base.Attach(api)
	// Phase-shift the first dump so nodes don't synchronise.
	api.Every(api.Rand().Float64()*updateInterval, updateInterval, r.advertise)
}

// advertise broadcasts the full route table. Every dump gets an array of
// its own, made at its exact size: its receivers share the payload, and the
// last dump's frame may still wait in the MAC queue.
func (r *Router) advertise() {
	r.seq += 2 // own sequence numbers stay even while alive
	r.dsts = r.table.AppendDestinations(r.dsts[:0], r.API.Now())
	routes := make([]advert, 1, 1+len(r.dsts))
	routes[0] = advert{Dst: r.API.Self(), Seq: r.seq, Hops: 0}
	for _, dst := range r.dsts {
		rt, _ := r.table.Get(dst)
		routes = append(routes, advert{Dst: dst, Seq: rt.Seq, Hops: rt.Hops})
	}
	r.broadcast(routes)
}

// broadcast sends routes to the one-hop neighbourhood as a table update.
func (r *Router) broadcast(routes []advert) {
	pkt := routing.NewPacket(r.API, netstack.KindUpdate, netstack.Broadcast, 16+12*len(routes), update{Routes: routes})
	pkt.TTL = 1
	r.API.Send(netstack.Broadcast, pkt)
}

// HandlePacket implements netstack.Router.
func (r *Router) HandlePacket(pkt *netstack.Packet) {
	switch pkt.Kind {
	case netstack.KindUpdate:
		r.handleUpdate(pkt)
		r.API.Release(pkt)
	case netstack.KindData:
		routing.ForwardData(r.API, &r.table, pkt)
	}
}

func (r *Router) handleUpdate(pkt *netstack.Packet) {
	for _, ad := range pkt.Payload.(update).Routes {
		if ad.Dst == r.API.Self() {
			continue
		}
		if ad.Hops < 0 {
			// unreachable advertisement: adopt if it is fresher than ours
			if cur, okCur := r.table.Get(ad.Dst); okCur && cur.Valid && routing.SeqNewer(ad.Seq, cur.Seq) {
				cur.Valid = false
				r.API.Metrics().RouteBreaks++
			}
			continue
		}
		cand := routing.Route{
			Dst: ad.Dst, NextHop: pkt.From, Hops: ad.Hops + 1,
			Seq: ad.Seq, Valid: true,
		}
		cur, okCur := r.table.Get(ad.Dst)
		switch {
		case !okCur || !cur.Valid:
			r.table.Upsert(cand)
		case routing.SeqNewer(ad.Seq, cur.Seq):
			r.table.Upsert(cand)
		case ad.Seq == cur.Seq && cand.Hops < cur.Hops:
			r.table.Upsert(cand)
		}
	}
}

// Originate implements netstack.Router: proactive routing either has the
// route or drops (no discovery latency, no buffering).
func (r *Router) Originate(dst netstack.NodeID, size int) {
	pkt := routing.NewData(r.API, dst, size)
	if rt, ok := r.table.Lookup(dst, r.API.Now()); ok {
		r.API.Send(rt.NextHop, pkt)
		return
	}
	r.API.Drop(pkt)
}

// OnNeighborExpired implements netstack.Router: mark routes through the
// lost neighbor unreachable and advertise the break with odd sequence
// numbers (the DSDV link-break rule).
func (r *Router) OnNeighborExpired(id netstack.NodeID) {
	r.dsts = r.table.InvalidateVia(id, r.dsts[:0])
	broken := r.dsts
	if len(broken) == 0 {
		return
	}
	r.API.Metrics().RouteBreaks += len(broken)
	routes := make([]advert, 0, len(broken))
	for _, dst := range broken {
		rt, _ := r.table.Get(dst)
		routes = append(routes, advert{Dst: dst, Seq: rt.Seq + 1, Hops: -1})
	}
	r.broadcast(routes)
}

// OnSendFailed implements netstack.Router: treat like a neighbor loss.
func (r *Router) OnSendFailed(pkt *netstack.Packet, to netstack.NodeID) {
	routing.SendFailed(r.API, pkt, to, r.OnNeighborExpired)
}

// Table exposes the route table for tests.
func (r *Router) Table() *routing.Table { return &r.table }
