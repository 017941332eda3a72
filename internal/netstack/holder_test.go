package netstack_test

import (
	"reflect"
	"testing"

	"github.com/vanetlab/relroute/internal/core"
	"github.com/vanetlab/relroute/internal/netstack"
	"github.com/vanetlab/relroute/internal/routing/routetest"
)

// holders follows every pointer payload of a unicast control packet from
// holder to holder: the node it was delivered to, or the sender it came
// back to through OnSendFailed. The map keeps each payload alive, so no
// address is reused while it is watched.
type holders struct {
	t      *testing.T
	at     map[any]netstack.NodeID
	passed int // deliveries of a payload seen before
	failed int // payloads handed back through OnSendFailed
}

// hand records that the payload of pkt reached node to from its sender:
// through HandlePacket, or back through OnSendFailed when to is the sender.
func (h *holders) hand(pkt *netstack.Packet, to netstack.NodeID) {
	if pkt.Kind == netstack.KindData || pkt.To == netstack.Broadcast ||
		reflect.ValueOf(pkt.Payload).Kind() != reflect.Pointer {
		return
	}
	held, seen := h.at[pkt.Payload]
	switch {
	case seen && held != pkt.From:
		h.t.Errorf("%v: payload %p reached %d from %d while %d held it", pkt, pkt.Payload, to, pkt.From, held)
	case to == pkt.From:
		h.failed++
	case seen:
		h.passed++
	}
	h.at[pkt.Payload] = to
}

type holderRouter struct {
	netstack.Router
	h *holders
}

func (r holderRouter) HandlePacket(pkt *netstack.Packet) {
	r.h.hand(pkt, pkt.To)
	r.Router.HandlePacket(pkt)
}

func (r holderRouter) OnSendFailed(pkt *netstack.Packet, to netstack.NodeID) {
	r.h.hand(pkt, pkt.From)
	r.Router.OnSendFailed(pkt, to)
}

// TestUnicastPayloadHasOneHolder pins the rule that lets a router extend
// the payload of a unicast packet it was handed and send it on, as the
// ticket router's probes do: the stack hands a unicast payload to one
// holder at a time. The addressee gets it only when the frame got
// through, and then no retry follows; the sender gets it back through
// OnSendFailed only once every attempt failed, so after no delivery. On
// the faulted chain of TestSourceRoutedPacketsRecycled, every probe must
// reach a node only from its holder, and come back only to its holder.
func TestUnicastPayloadHasOneHolder(t *testing.T) {
	h := &holders{t: t, at: map[any]netstack.NodeID{}}
	factory := core.NewTicketRouter()
	w, ids := routetest.World(t, 1, routetest.Chain(8, 100, 20), func() netstack.Router {
		return holderRouter{factory(), h}
	})
	w.SetLinkFault(func(from, to int32) float64 {
		if int(w.Engine().Now()*2.7)%4 == 1 {
			return 1
		}
		return 0
	})
	n := len(ids)
	w.AddFlow(ids[0], ids[n-1], 2, 0.2, 10, 256)
	w.AddFlow(ids[0], ids[n-1], 2.1, 0.2, 10, 256)
	w.AddFlow(ids[0], ids[n-1], 42, 0.2, 10, 256)
	if err := w.Run(80); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d payloads watched, %d passed on by their holder, %d handed back", len(h.at), h.passed, h.failed)
	if len(h.at) == 0 || h.passed == 0 || h.failed == 0 {
		t.Fatal("no payload was passed on or handed back: the run tested nothing")
	}
}
