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
		r.Init(r.Name(), nil, nil)
		return r
	}
}

// Name implements netstack.Router.
func (r *Router) Name() string { return "Flooding" }

// Biswas is the acknowledged flooding router of Biswas et al. [9]: after
// rebroadcasting, a node listens for the same packet from another node; if
// no copy is overheard within ackTimeout it rebroadcasts again, up to
// maxRetries times. ("If the vehicle does not receive the acknowledgment,
// it will periodically rebroadcast the packet until the acknowledgment is
// received.")
type Biswas struct {
	routing.Flooder
	retry map[uint64]sim.TimerID // packet UID → pending retransmission
}

const (
	ackTimeout = 0.5 // seconds a rebroadcast waits for its implicit ack
	maxRetries = 3
)

// NewBiswas returns a factory for the acknowledged flooding router.
func NewBiswas() netstack.RouterFactory {
	return func() netstack.Router {
		b := &Biswas{retry: make(map[uint64]sim.TimerID)}
		b.Init(b.Name(), nil, b.sendWithAck)
		return b
	}
}

// Name implements netstack.Router.
func (b *Biswas) Name() string { return "Biswas" }

// HandlePacket implements netstack.Router: any overheard copy, duplicate
// or not, acknowledges our pending rebroadcast; the rest is the flood's.
func (b *Biswas) HandlePacket(pkt *netstack.Packet) {
	if timer, ok := b.retry[pkt.UID]; ok {
		b.API.Cancel(timer)
		delete(b.retry, pkt.UID)
	}
	b.Flooder.HandlePacket(pkt)
}

// sendWithAck transmits and arms the implicit-ack retry timer. It takes
// custody (see routing.Flooder.Init): the retry keeps the packet, whose first
// transmission may still be queued when the ack arrives, so it is sent with
// Send and never released.
func (b *Biswas) sendWithAck(pkt *netstack.Packet, _ bool) bool {
	b.API.Send(netstack.Broadcast, pkt)
	tries := 0
	var retry func()
	retry = func() {
		if tries >= maxRetries {
			delete(b.retry, pkt.UID)
			return
		}
		tries++
		b.API.Send(netstack.Broadcast, pkt.Clone())
		b.retry[pkt.UID] = b.API.After(ackTimeout, retry)
	}
	b.retry[pkt.UID] = b.API.After(ackTimeout, retry)
	return true
}
