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
	// call to call; free is the dump records whose frames are done.
	dsts []netstack.NodeID
	free []*update
}

// advert is one advertised route.
type advert struct {
	Dst  netstack.NodeID
	Seq  uint32
	Hops int // hops from the advertiser; -1 marks unreachable
}

// update is a table dump payload, periodic or a break's: the routes it
// advertises, and the router whose free list it goes back to.
type update struct {
	Routes []advert
	owner  *Router
}

// Recycle implements netstack.Recycler: the dump's frame is done, so every
// receiver has read it, and the record goes back to its router's free list
// with the capacity of its array.
func (u *update) Recycle() { u.owner.free = append(u.owner.free, u) }

// record is an empty dump record: the last one whose frame is done, or a
// new one.
func (r *Router) record() *update {
	if k := len(r.free); k > 0 {
		u := r.free[k-1]
		r.free = r.free[:k-1]
		u.Routes = u.Routes[:0]
		return u
	}
	return &update{owner: r}
}

// New returns a DSDV router factory.
func New() netstack.RouterFactory {
	return func() netstack.Router { return &Router{} }
}

// Attach implements netstack.Router and starts the periodic advertiser.
func (r *Router) Attach(api *netstack.API) {
	r.Base.Attach(api)
	// Phase-shift the first dump so nodes don't synchronise.
	api.Every(api.Rand().Float64()*updateInterval, updateInterval, r)
}

// Tick implements netstack.Periodic: it broadcasts the full route table.
// Every dump is a record of its own, not the last dump's: its receivers
// share the payload, and the last dump's frame may still wait in the MAC
// queue. A record comes back to the free list when its frame is done, and
// keeps its array, so a dump allocates nothing once the list is warm.
func (r *Router) Tick() {
	r.seq += 2 // own sequence numbers stay even while alive
	r.dsts = r.table.AppendDestinations(r.dsts[:0], r.API.Now())
	u := r.record()
	u.Routes = append(u.Routes, advert{Dst: r.API.Self(), Seq: r.seq, Hops: 0})
	for _, dst := range r.dsts {
		rt, _ := r.table.Get(dst)
		u.Routes = append(u.Routes, advert{Dst: dst, Seq: rt.Seq, Hops: rt.Hops})
	}
	r.broadcast(u)
}

// broadcast sends the dump u to the one-hop neighbourhood as a table
// update.
func (r *Router) broadcast(u *update) {
	pkt := routing.NewPacket(r.API, netstack.KindUpdate, netstack.Broadcast, 16+12*len(u.Routes), u)
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
	for _, ad := range pkt.Payload.(*update).Routes {
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
	u := r.record()
	for _, dst := range broken {
		rt, _ := r.table.Get(dst)
		u.Routes = append(u.Routes, advert{Dst: dst, Seq: rt.Seq + 1, Hops: -1})
	}
	r.broadcast(u)
}

// OnSendFailed implements netstack.Router: treat like a neighbor loss.
func (r *Router) OnSendFailed(pkt *netstack.Packet, to netstack.NodeID) {
	routing.SendFailed(r.API, pkt, to, r.OnNeighborExpired)
}

// Table exposes the route table for tests.
func (r *Router) Table() *routing.Table { return &r.table }
