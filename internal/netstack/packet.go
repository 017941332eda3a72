package netstack

import (
	"fmt"

	"github.com/vanetlab/relroute/internal/linkstate"
	"github.com/vanetlab/relroute/internal/metrics"
)

// NodeID identifies a node (vehicle, RSU, or bus). IDs are dense from 0.
// The type is owned by the reliability plane (internal/linkstate), which
// sits below the netstack; this alias keeps protocol code spelling
// netstack.NodeID.
type NodeID = linkstate.NodeID

// Broadcast is the link-layer broadcast destination.
const Broadcast NodeID = -1

// NodeKind distinguishes the node roles the survey's categories rely on.
type NodeKind = linkstate.NodeKind

// Node kinds, re-exported from the reliability plane.
const (
	// Vehicle is an ordinary car.
	Vehicle = linkstate.Vehicle
	// RSU is a fixed road-side unit with backbone connectivity (Sec. V).
	RSU = linkstate.RSU
	// BusNode is a message-ferry bus on a regular route (Sec. V, Kitani).
	BusNode = linkstate.BusNode
)

// Kind is what a packet is. The type is owned by the collector
// (internal/metrics), which counts control traffic per kind; this alias
// keeps protocol code spelling netstack.KindRREQ.
type Kind = metrics.Kind

// Packet kinds, re-exported from the collector. KindData is application
// data; every other kind is control, from the survey's control packet
// vocabulary (Sec. III-A).
const (
	KindData   = metrics.KindData
	KindHello  = metrics.KindHello
	KindRREQ   = metrics.KindRREQ
	KindRREP   = metrics.KindRREP
	KindRERR   = metrics.KindRERR
	KindProbe  = metrics.KindProbe  // TBP-SS tickets
	KindUpdate = metrics.KindUpdate // proactive table dumps (DSDV)
)

// Packet is the network-layer unit. From/To are link-layer addresses set
// per transmission; Src/Dst are end-to-end.
type Packet struct {
	UID     uint64 // unique per originated packet; forwarded copies share it
	Kind    Kind   // what the packet is: KindData, or a control kind
	Src     NodeID
	Dst     NodeID // end-to-end destination; Broadcast for dissemination
	From    NodeID // last-hop sender
	To      NodeID // link-layer destination (Broadcast or node)
	TTL     int
	Hops    int
	Size    int     // bytes
	Created float64 // origination time, seconds
	// Payload is the protocol-private extension, shared by every copy of
	// the packet. A broadcast payload reaches every receiver, so it is
	// shared and immutable, and no receiver keeps it past HandlePacket: a
	// relay sends a payload of its own, and a router that needs a value
	// from it copies the value. So a sender may take the payload back once
	// the frame is done: a payload that implements Recycler is handed back
	// then (a selective RREQ, a DSDV dump). A unicast payload has one
	// holder at a time: the addressee, once the frame got through (the MAC
	// then retries nothing), or the sender again through OnSendFailed,
	// once every attempt failed. So a router that sends a payload once may
	// extend the unicast payload it was handed before sending it on; one
	// sent more than once, such as a route header many data packets share,
	// stays immutable.
	Payload any
}

// Expired reports whether the TTL is exhausted.
func (p *Packet) Expired() bool { return p.TTL <= 0 }

// String implements fmt.Stringer.
func (p *Packet) String() string {
	return fmt.Sprintf("%s uid=%d %d→%d (hop %d→%d ttl=%d)",
		p.Kind, p.UID, p.Src, p.Dst, p.From, p.To, p.TTL)
}
