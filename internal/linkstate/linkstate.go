// Package linkstate is the reliability plane: a unified link-state
// estimation subsystem shared by every routing protocol. Each node owns a
// Monitor that accumulates evidence about its radio links — HELLO beacon
// kinematics and RSSI, MAC ARQ failure upcalls, successful frame
// receptions — and exposes one LinkState per neighbor with derived
// predictions (residual link lifetime, receipt probability) computed by a
// pluggable Estimator.
//
// Before this plane existed every protocol hand-rolled the estimation math
// at decision time against raw neighbor snapshots: PBR/Taleb/Abedi solved
// Eqn (4) per candidate per packet, REAR mapped RSSI to receipt
// probability with its private model, NiuDe/GVGrid rebuilt the Sec. VII
// link-duration model inline, and none of them folded in observed MAC
// failures or could be asked "how good were your predictions?". The
// Monitor centralises the bookkeeping, memoizes the pairwise kinematic
// lifetime per mobility epoch (0 allocs steady-state), and the netstack's
// ground-truth audit measures each estimator's prediction error against
// geometric link breaks (see the link-accuracy experiment).
//
// The identity vocabulary (NodeID, NodeKind) lives here because the plane
// sits below the netstack: netstack aliases these types, so protocol code
// keeps spelling netstack.NodeID.
package linkstate

import (
	"github.com/vanetlab/relroute/internal/geom"
)

// NodeID identifies a node (vehicle, RSU, or bus). IDs are dense from 0.
// netstack.NodeID aliases this type.
type NodeID int32

// NodeKind distinguishes the node roles the survey's categories rely on.
// netstack.NodeKind aliases this type.
type NodeKind int

const (
	// Vehicle is an ordinary car.
	Vehicle NodeKind = iota + 1
	// RSU is a fixed road-side unit with backbone connectivity (Sec. V).
	RSU
	// BusNode is a message-ferry bus on a regular route (Sec. V, Kitani).
	BusNode
)

// String implements fmt.Stringer.
func (k NodeKind) String() string {
	switch k {
	case Vehicle:
		return "vehicle"
	case RSU:
		return "rsu"
	case BusNode:
		return "bus"
	default:
		return "unknown"
	}
}

// LinkState is everything one node knows and predicts about the link to
// one neighbor. The observed fields are refreshed by the Monitor from
// beacons and MAC feedback; the derived fields (Age, Lifetime,
// ReceiptProb) are filled by the configured Estimator when the state is
// read through Monitor.State/States — they are zero on entries read
// through the raw accessors (Monitor.Snapshot, API.Neighbors).
type LinkState struct {
	ID       NodeID
	Kind     NodeKind
	Pos      geom.Vec2 // last beaconed position
	Vel      geom.Vec2 // last beaconed velocity
	RSSI     float64   // dBm of the latest beacon
	MeanRSSI float64   // exponentially weighted RSSI average
	LastSeen float64   // sim time of the latest beacon
	Beacons  int       // beacons received from this neighbor

	// reliability-plane evidence
	FirstSeen float64 // sim time the link entered the table (link age origin)
	RSSITrend float64 // EWMA slope of the beacon RSSI in dB/s (negative = fading)
	Received  int     // non-beacon frames received over this link
	TxFails   int     // unicast ARQ exhaustions reported by the MAC
	// FeedbackProb is the EWMA of per-frame link outcomes: beacon and data
	// receptions push it toward 1, MAC transmission failures toward 0. It
	// starts at 1 when the link is first heard.
	FeedbackProb float64

	// derived by the Estimator (see the struct comment)
	Age         float64 // seconds since the last beacon
	Lifetime    float64 // predicted residual link lifetime in seconds
	ReceiptProb float64 // predicted per-frame receipt probability in [0,1]
}

// Observer is the monitoring node's own state at estimation time. Epoch is
// the mobility epoch the kinematic-lifetime memo keys on: the observer's
// position and velocity must only change when Epoch advances.
type Observer struct {
	Pos, Vel geom.Vec2
	Now      float64
	Epoch    uint64
}
