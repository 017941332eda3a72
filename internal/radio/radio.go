// Package radio caches per-mobility-epoch link state between the spatial
// index and the channel model: for every transmitter, the candidate
// receiver list with precomputed distances. What the channel makes of a
// distance — a comparison for the unit disk, a table lookup and a draw for
// shadowing — is cheap enough to run per frame, so nothing of it is cached.
//
// The MAC's transmit path used to be an O(candidates) grid scan per frame;
// with beacon storms every node transmits every interval, making that the
// dominant cost at city density. Positions only change at
// mobility-tick boundaries (plus node join/leave), so all of it is a pure
// function of the grid's epoch. The cache memoizes neighborhoods per epoch
// and reuses them — one comparison against spatial.Grid.Epoch — for every
// subsequent frame until the world moves again.
//
// The simulator builds every neighborhood lazily (Links): one node's
// neighborhood on first use in an epoch, by walking the grid's 3×3 cell
// stencil around the transmitter, so nodes that do not transmit in an
// epoch never pay anything.
//
// Every neighborhood of an epoch lives in one arena of links, which the
// first build of a new grid epoch starts over; a node's hood is only an
// offset and a length into it. No node holds links between epochs, so a
// departed node holds nothing. A slice Links returns is valid until the
// grid's next change: a later build in the same epoch appends past it (a
// grown arena leaves it on the old backing array, unchanged), but the
// first build after a change overwrites it with other nodes' links.
//
// RebuildSweep fills the same arena eagerly, for bench/replay.go alone,
// which times it against the lazy build: every neighborhood in one
// symmetric pass over the grid's CSR snapshot (spatial.Snapshot — occupied
// cells sorted by (CX, CY), members packed contiguously). The sweep
// enumerates each unordered in-range cell pair once, computes each
// in-range pair's distance once, counts each endpoint's links, lays the
// hoods out by prefix sum, and writes every link into both endpoints'
// hoods.
//
// Order reconstruction: Links must list candidates in exactly the order
// spatial.Grid.Within returns them — ascending (cx, cy) cell rank, then
// cell list order — because golden outputs consume links in list order.
// A transmitter's stencil covers every in-range cell, so that order is the
// restriction of one global total order (CSR cell rank, then in-cell
// position) to the in-range subset, independent of the transmitter. The
// sweep exploits this: enumerating cell pairs (a, b) with a ≤ b in rank
// order — in-cell pairs i < j first, then forward cells by rank — and
// scattering per-shard pair buffers in shard order appends every link in
// exactly that global order, so each hood comes out byte-identical to a
// lazy build. Distances are bitwise symmetric (math.Hypot of negated
// differences), so one computation serves both directions.
//
// Determinism contract: both builders produce identical link lists, with
// distances computed by the same expression the uncached MAC used, and
// the reception decision is the channel's own Decodable at that distance.
// A cached transmit is therefore byte-identical to an uncached one; the
// golden files and the sweep property tests pin this.
//
// The cache is shared: the netstack world owns invalidation (its mobility
// step's grid updates advance the epoch; join/leave and failure injection
// advance it incrementally), the MAC consumes Links for every frame, and
// beaconing rides the same cached neighborhoods since beacons are ordinary
// MAC broadcasts.
//
// Checkpoint contract: the cache is pure memoization — every entry is a
// function of the grid epoch and node positions, and which entries are
// populated depends on who transmitted. It is therefore excluded from the
// world's state digest and never serialized; a restored world starts with
// a cold cache and repopulates it on first transmit, byte-identically.
package radio

import (
	"math"
	"math/rand"
	"slices"

	"github.com/vanetlab/relroute/internal/channel"
	"github.com/vanetlab/relroute/internal/par"
	"github.com/vanetlab/relroute/internal/spatial"
)

// Link is one cached candidate receiver of a node's transmissions.
type Link struct {
	To   int32   // receiver node ID
	Dist float64 // meters at the epoch the neighborhood was built
}

// Cache memoizes candidate receiver lists per transmitter. It is built
// over a Grid and a channel Model once per world; the zero value is not
// usable. Not safe for concurrent use — like every per-world structure,
// it belongs to the single-threaded simulation engine.
type Cache struct {
	grid   *spatial.Grid
	model  channel.Model
	hoods  []hood // dense, keyed by node ID
	builds uint64 // rebuild counter (instrumentation/tests)

	// arena holds every hood built in grid epoch arenaEpoch; the first
	// build in a later epoch truncates it. Its backing array persists, so
	// steady-state builds do not allocate.
	arena      []Link
	arenaEpoch uint64

	// demand accounting behind PrevEpochUse: how many distinct transmitters
	// requested their neighborhood during the current and the previous grid
	// epoch. Requests ride the serial transmit path, so the counts are
	// deterministic.
	reqEpoch uint64
	reqCount int
	prevReq  int

	sweepEpoch uint64 // last epoch RebuildSweep ran; repeat sweeps are no-ops

	// sweep holds the per-shard pair arenas: each shard discovers pairs in
	// its own cell stripe into its own buffers, sharing nothing but the
	// read-only snapshot, and the serial scatter drains them in shard
	// order. Backing arrays persist across epochs so steady-state sweeps
	// do not allocate.
	sweep []sweepShard
}

// sweepShard is one shard's pair buffer: parallel arrays of endpoint node
// IDs and pair distance.
type sweepShard struct {
	a, b []int32
	d    []float64
}

// hood is one node's cached neighborhood: the window arena[off:off+n],
// valid while epoch is the grid's. epoch 0 means never built (grid epochs
// are 1-based); req is the last epoch the node requested it (demand
// accounting, distinct from having it built by a sweep).
type hood struct {
	off, n int32
	epoch  uint64
	req    uint64
}

// NewCache returns a cache over the given index and propagation model.
func NewCache(grid *spatial.Grid, model channel.Model) *Cache {
	return &Cache{grid: grid, model: model}
}

// Links returns the candidate receiver list for a transmission from id,
// rebuilding it only if the grid changed since it was last built. A node
// the grid does not track (left, failed, never joined) gets an empty list.
// The returned slice is owned by the cache and must not be mutated. It is
// valid until the grid's next change: the first build after that reuses
// its memory for other nodes' links, so it must not be kept across one.
func (c *Cache) Links(id int32) []Link {
	if id < 0 {
		return nil
	}
	for int(id) >= len(c.hoods) {
		c.hoods = append(c.hoods, hood{})
	}
	h := &c.hoods[id]
	e := c.grid.Epoch()
	if h.req != e {
		if e != c.reqEpoch {
			c.prevReq, c.reqCount, c.reqEpoch = c.reqCount, 0, e
		}
		h.req = e
		c.reqCount++
	}
	if h.epoch != e {
		c.builds++
		c.rebuildInto(id, h, c.arenaFor(e))
		h.epoch = e
	}
	return c.arena[h.off : h.off+h.n : h.off+h.n]
}

// arenaFor readies the arena for builds in grid epoch e: it starts over
// once the grid has changed since its last build.
func (c *Cache) arenaFor(e uint64) int32 {
	if c.arenaEpoch != e {
		c.arena, c.arenaEpoch = c.arena[:0], e
	}
	return int32(len(c.arena))
}

// rebuildInto recomputes one node's neighborhood at the arena's end, off,
// by walking the same cell stencil Grid.Within covers, in the same order.
// Each stencil cell is looked up once: the counting pass keeps the
// non-empty member lists, which bounds the hood so the arena grows at most
// once per build, and the fill pass walks the kept lists, reading each
// candidate's position once.
func (c *Cache) rebuildInto(id int32, h *hood, off int32) {
	h.off, h.n = off, 0
	pos, ok := c.grid.Position(id)
	if !ok {
		return
	}
	r := c.model.MaxRange()
	r2 := r * r
	minCX, minCY, maxCX, maxCY := c.grid.CellBounds(pos, r)
	// The world's grid cell is the radio range, so the stencil is 3×3 and
	// the lists stay on the stack; a finer grid spills to the heap.
	var stencil [9][]int32
	lists := stencil[:0]
	total := 0
	for cx := minCX; cx <= maxCX; cx++ {
		for cy := minCY; cy <= maxCY; cy++ {
			if l := c.grid.CellList(cx, cy); len(l) > 0 {
				lists = append(lists, l)
				total += len(l)
			}
		}
	}
	// total counts the transmitter itself and out-of-range candidates, so
	// total-1 bounds the neighborhood size.
	if total > 1 {
		c.arena = slices.Grow(c.arena, total-1)
	}
	for _, l := range lists {
		for _, rx := range l {
			if rx == id {
				continue
			}
			// Cell members are always indexed, so the unchecked read is
			// safe.
			rxPos := c.grid.At(rx)
			if rxPos.DistSq(pos) > r2 {
				continue
			}
			c.arena = append(c.arena, Link{To: rx, Dist: rxPos.Dist(pos)})
		}
	}
	h.n = int32(len(c.arena)) - off
}

// PrevEpochUse returns how many distinct transmitters requested their
// neighborhood during the previous grid epoch: the demand bench/ladder.go
// reports as a share of the population.
func (c *Cache) PrevEpochUse() int { return c.prevReq }

// RebuildSweep eagerly rebuilds every grid member's neighborhood for the
// current epoch in one symmetric pass over the CSR snapshot: each
// unordered pair of in-range cells is visited by exactly one shard (the
// one owning the lower-ranked cell), and each in-range node pair's
// distance is computed once. The serial scatter then counts each member's
// links, lays the hoods out back to back in the arena by prefix sum, and
// writes each link into both endpoints' hoods. Scattering the per-shard
// buffers in shard order replays the exact serial enumeration order, which
// in turn reproduces Grid.Within's candidate order in every hood (see the
// package comment), so the sweep is a pure prefetch: transmissions — and with
// them every golden output — are unaffected at any shard count. Nodes the
// grid does not track are left to the lazy path, which rebuilds them
// empty on first use.
//
// Only bench/replay.go calls RebuildSweep, with the inline pool, to time
// it against the lazy build; the simulator never does. The pool
// parameter, the per-shard arenas and internal/par survive because the
// benchmark spells them by name (ROADMAP item 5).
func (c *Cache) RebuildSweep(pool *par.Pool) {
	e := c.grid.Epoch()
	if c.sweepEpoch == e {
		return // the epoch's geometry is already swept; hoods are fresh
	}
	snap := c.grid.Snapshot()
	if len(snap.IDs) == 0 {
		return
	}
	c.sweepEpoch = e
	maxID := int32(-1)
	for _, id := range snap.IDs {
		if id > maxID {
			maxID = id
		}
	}
	for int(maxID) >= len(c.hoods) {
		c.hoods = append(c.hoods, hood{})
	}
	for _, id := range snap.IDs {
		c.hoods[id] = hood{epoch: e, req: c.hoods[id].req}
	}
	n := pool.Shards()
	for len(c.sweep) < n {
		c.sweep = append(c.sweep, sweepShard{})
	}
	r := c.model.MaxRange()
	r2 := r * r
	reach := int32(math.Ceil(r / c.grid.CellSize()))
	cells := snap.Cells
	pool.Run(func(shard int) {
		sh := &c.sweep[shard]
		sh.a, sh.b, sh.d = sh.a[:0], sh.b[:0], sh.d[:0]
		lo, hi := pool.Range(len(cells), shard)
		for ai := lo; ai < hi; ai++ {
			ca := cells[ai]
			// in-cell pairs, i < j in list order
			for i := ca.Start; i < ca.End; i++ {
				pi := snap.Pos[i]
				for j := i + 1; j < ca.End; j++ {
					if snap.Pos[j].DistSq(pi) <= r2 {
						sh.a = append(sh.a, snap.IDs[i])
						sh.b = append(sh.b, snap.IDs[j])
						sh.d = append(sh.d, snap.Pos[j].Dist(pi))
					}
				}
			}
			// forward cells in the same row: contiguous right after ai
			for bi := ai + 1; bi < len(cells) && cells[bi].CX == ca.CX && cells[bi].CY <= ca.CY+reach; bi++ {
				sh.pairCells(snap, ca, cells[bi], r2)
			}
			// forward rows: binary-search each row's window start
			for dcx := int32(1); dcx <= reach; dcx++ {
				for bi := snap.Search(ca.CX+dcx, ca.CY-reach); bi < len(cells) && cells[bi].CX == ca.CX+dcx && cells[bi].CY <= ca.CY+reach; bi++ {
					sh.pairCells(snap, ca, cells[bi], r2)
				}
			}
		}
	})
	// count, then lay out: each member's window starts where the previous
	// one's ends, and n is reset to serve as the fill cursor
	for s := 0; s < n; s++ {
		sh := &c.sweep[s]
		for k := range sh.a {
			c.hoods[sh.a[k]].n++
			c.hoods[sh.b[k]].n++
		}
	}
	off := c.arenaFor(e)
	for _, id := range snap.IDs {
		h := &c.hoods[id]
		h.off, off, h.n = off, off+h.n, 0
	}
	c.arena = slices.Grow(c.arena, int(off)-len(c.arena))[:off]
	for s := 0; s < n; s++ {
		sh := &c.sweep[s]
		for k := range sh.a {
			i, j, d := sh.a[k], sh.b[k], sh.d[k]
			hi := &c.hoods[i]
			c.arena[hi.off+hi.n] = Link{To: j, Dist: d}
			hi.n++
			hj := &c.hoods[j]
			c.arena[hj.off+hj.n] = Link{To: i, Dist: d}
			hj.n++
		}
	}
	c.builds += uint64(len(snap.IDs))
}

// pairCells emits every in-range pair between two distinct cells: outer
// loop over ca's members, inner over cb's, so each hood receives its
// contributions from the other cell in that cell's list order.
func (sh *sweepShard) pairCells(snap *spatial.Snapshot, ca, cb spatial.CellSpan, r2 float64) {
	for i := ca.Start; i < ca.End; i++ {
		pi := snap.Pos[i]
		for j := cb.Start; j < cb.End; j++ {
			if snap.Pos[j].DistSq(pi) <= r2 {
				sh.a = append(sh.a, snap.IDs[i])
				sh.b = append(sh.b, snap.IDs[j])
				sh.d = append(sh.d, snap.Pos[j].Dist(pi))
			}
		}
	}
}

// Decodable decides reception over a cached link: Model.Decodable at the
// link's distance.
func (c *Cache) Decodable(lk Link, rng *rand.Rand) bool {
	return c.model.Decodable(lk.Dist, rng)
}

// Builds returns how many neighborhood rebuilds have run — the number of
// (node, epoch) pairs actually paid for, which tests compare against the
// transmission count to prove amortization.
func (c *Cache) Builds() uint64 { return c.builds }
