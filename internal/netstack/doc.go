// Package netstack is the node-level network substrate: packets, nodes,
// HELLO beaconing, neighbor tables, application flows, and the Router
// interface every protocol in internal/routing implements. It wires the
// mobility model, spatial index, channel, and MAC into a World that runs on
// the discrete-event engine.
//
// One file per job:
//
//	world.go       Config, the fixed timing constants, node, World, NewWorld, accessors
//	membership.go  addNode, join / re-entry / leave, the active slice, setActive
//	run.go         Run / StartRun / AdvanceTo / CompleteRun and step, the per-tick phases
//	beacon.go      the HELLO plane: ticker, send (with its packet pool), reception
//	flow.go        CBR application flows, by node ID or by vehicle ID
//	frame.go       Send → MAC → dispatch / txFailed / frameDone, delayed sends, the packet pool
//	location.go    the idealised location service
//	digest.go      DigestInto by layer and the RNG stream table
//	audit.go       ground-truth link audit (opt-in)
//	faultplane.go  crash / recover and the hooks internal/faults installs
//	router.go      Router, Base and the per-node API; packet.go, neighbor.go: the types
//
// World.step runs every 0.1 s as these phases, in this order; each may
// write only what is listed (the routers' own state aside):
//
//	readStates       stepSeq, stateBuf (reads the mobility model)
//	placeVehicles    node pos / vel / seenStep; grid moves, staged, committed on a
//	                 cell crossing; joins and re-entries: nodes, byVeh, actives,
//	                 counters, the engine's seed stream, a beacon ticker
//	AdvanceEpoch     the grid epoch, once, if a staged move changed anything
//	model.Advance    the mobility model, now one tick ahead of the nodes
//	sweepDepartures  open worlds: node left / active, actives, grid, counters
//	expireNeighbors  link tables; routers hear OnNeighborExpired and may send
//	auditStep        the audit's open samples, the collector's prediction block
package netstack
