// Package flood implements the survey's connectivity-based baseline
// (Sec. III): pure flooding, in which every node rebroadcasts each data
// packet it sees for the first time. It is "easy to implement" and "a good
// solution for traffic notification applications", but exhibits the
// broadcast storm problem as density grows — the behaviour experiment E-A1
// measures. The package also provides Biswas's acknowledged variant, which
// treats overhearing its own rebroadcast from another node as an implicit
// acknowledgment and retransmits until acknowledged.
package flood

import (
	"github.com/vanetlab/relroute/internal/netstack"
	"github.com/vanetlab/relroute/internal/routing"
	"github.com/vanetlab/relroute/internal/sim"
)

// Router is the pure flooding router: routing.Flooder with nothing bound.
// Needing no neighbor state is exactly why Table I calls it "simple".
type Router struct{ routing.Flooder }

// New returns a flooding router factory.
func New() netstack.RouterFactory {
	return func() netstack.Router {
		r := &Router{}
		r.Init(nil, nil)
		return r
	}
}

// Biswas is the acknowledged flooding router of Biswas et al. [9]: after
// rebroadcasting, a node listens for the same packet from another node; if
// no copy is overheard within ackTimeout it rebroadcasts again, up to
// maxRetries times. ("If the vehicle does not receive the acknowledgment,
// it will periodically rebroadcast the packet until the acknowledgment is
// received.")
type Biswas struct {
	routing.Flooder
	retry map[uint64]pending // packet UID → pending retransmission
}

// pending is a rebroadcast waiting for its implicit ack: the retry timer
// and the copy of the packet the retry sends copies of.
type pending struct {
	timer sim.TimerID
	kept  *netstack.Packet
}

const (
	ackTimeout = 0.5 // seconds a rebroadcast waits for its implicit ack
	maxRetries = 3
)

// NewBiswas returns a factory for the acknowledged flooding router.
func NewBiswas() netstack.RouterFactory {
	return func() netstack.Router {
		b := &Biswas{retry: make(map[uint64]pending)}
		b.Init(nil, b.sendWithAck)
		return b
	}
}

// HandlePacket implements netstack.Router: any overheard copy, duplicate
// or not, acknowledges our pending rebroadcast, whose kept copy goes back
// to the pool; the rest is the flood's.
func (b *Biswas) HandlePacket(pkt *netstack.Packet) {
	if p, ok := b.retry[pkt.UID]; ok {
		b.API.Cancel(p.timer)
		b.API.Release(p.kept)
		delete(b.retry, pkt.UID)
	}
	b.Flooder.HandlePacket(pkt)
}

// sendWithAck transmits and arms the implicit-ack retry timer. The retry
// keeps a pooled copy of the packet and sends a fresh copy of that each
// time; the kept copy goes back to the pool at the ack, or once the retries
// run out.
func (b *Biswas) sendWithAck(pkt *netstack.Packet, _ bool) bool {
	kept := b.API.NewPacket()
	*kept = *pkt
	b.API.Send(netstack.Broadcast, pkt)
	tries := 0
	var retry func()
	retry = func() {
		if tries >= maxRetries {
			delete(b.retry, kept.UID)
			b.API.Release(kept)
			return
		}
		tries++
		cp := b.API.NewPacket()
		*cp = *kept
		b.API.Send(netstack.Broadcast, cp)
		b.retry[kept.UID] = pending{b.API.After(ackTimeout, retry), kept}
	}
	b.retry[kept.UID] = pending{b.API.After(ackTimeout, retry), kept}
	return true
}
