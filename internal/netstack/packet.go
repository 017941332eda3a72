package netstack

import (
	"fmt"

	"github.com/vanetlab/relroute/internal/linkstate"
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

// Common packet kind names used for metrics accounting. Protocols may
// define additional kinds; these cover the survey's control packet
// vocabulary (Sec. III-A).
const (
	KindData   = "DATA"
	KindHello  = "HELLO"
	KindRREQ   = "RREQ"
	KindRREP   = "RREP"
	KindRERR   = "RERR"
	KindProbe  = "PROBE"  // TBP-SS tickets
	KindUpdate = "UPDATE" // proactive table dumps (DSDV)
)

// Packet is the network-layer unit. From/To are link-layer addresses set
// per transmission; Src/Dst are end-to-end.
type Packet struct {
	UID     uint64 // unique per originated packet; forwarded copies share it
	Kind    string // metrics label, e.g. KindData, KindRREQ
	Data    bool   // true for application data, false for control
	Proto   string // owning protocol name
	Src     NodeID
	Dst     NodeID // end-to-end destination; Broadcast for dissemination
	From    NodeID // last-hop sender
	To      NodeID // link-layer destination (Broadcast or node)
	TTL     int
	Hops    int
	Size    int     // bytes
	Created float64 // origination time, seconds
	Payload any     // protocol-private extension; treat as immutable

	// final is set while the packet sits in the MAC after API.SendFinal:
	// the stack recycles it when the frame is done. Send clears it and
	// dispatch clears it on every per-receiver copy.
	final bool
}

// Clone returns a shallow copy. The stack clones packets per receiver on
// broadcast so routers can mutate header fields freely; Payload is shared
// and must be treated as immutable (copy-on-write in the protocol).
//
// Clone always heap-allocates. The per-receiver copies the stack hands to
// Router.HandlePacket come from the World's free list instead; see the
// ownership rules on API.Release.
func (p *Packet) Clone() *Packet {
	cp := *p
	return &cp
}

// Expired reports whether the TTL is exhausted.
func (p *Packet) Expired() bool { return p.TTL <= 0 }

// String implements fmt.Stringer.
func (p *Packet) String() string {
	return fmt.Sprintf("%s[%s] uid=%d %d→%d (hop %d→%d ttl=%d)",
		p.Proto, p.Kind, p.UID, p.Src, p.Dst, p.From, p.To, p.TTL)
}
