package netstack

import "github.com/vanetlab/relroute/internal/linkstate"

// Neighbor is one entry of a node's neighbor table, refreshed by HELLO
// beacons. It carries the state the surveyed protocols consume — position
// and velocity (mobility/geographic categories), RSSI history (REAR's
// receipt probability), the node kind (infrastructure category) — plus the
// reliability plane's evidence and predictions.
//
// The table itself is the per-node linkstate.Monitor: the stack feeds it
// beacons, MAC ARQ failure upcalls, and successful receptions, and the
// configured Estimator derives residual-lifetime and receipt-probability
// predictions from that evidence. Entries read through the raw accessor
// API.AppendNeighbors carry observed fields only; API.LinkState and
// API.AppendLinkStates fill the derived predictions.
type Neighbor = linkstate.LinkState

// LinkState is the same record under its reliability-plane name: use it
// when reading through API.LinkState/API.AppendLinkStates, where the derived
// Lifetime, ReceiptProb, and Age fields are filled by the estimator.
type LinkState = linkstate.LinkState
