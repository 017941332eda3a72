package mac

import (
	"runtime"
	"slices"
	"testing"

	"github.com/vanetlab/relroute/internal/digest"
	"github.com/vanetlab/relroute/internal/geom"
	"github.com/vanetlab/relroute/internal/metrics"
)

// chunkRun is what TestDeliverUpcallSendsAcrossChunks compares: node 0's
// reception records as its first resolution starts and ends, when its
// unicast reached the addressee and on which attempt, its failure upcalls,
// the layer's digest at its first and last receivers' upcalls and at fixed
// instants, and the MAC counters.
type chunkRun struct {
	firstRecs, lastRecs []txRec
	arrivals            []int // attempts of each copy node 0's unicast delivered to the addressee
	fails               int
	digests             []uint64
	counters            [4]int
}

// runChunkScenario puts 600 nodes on 240 m of road, all in range of each
// other, and a hidden node 600 another 240 m on, in range of the far end
// only. Node 0 unicasts to node 599 while node 600 broadcasts a long frame
// over the addressee, so the first attempt collides there and the ARQ
// retries. Every eighth receiver that decodes node 0's frame sends a short
// broadcast of its own from inside the deliver upcall — the first Send it
// ever makes — so finishTx carves 71 sender states across three chunk
// boundaries while it holds node 0's, and the medium clears soon enough for
// the retry to reach the addressee. With precarve every state exists before
// the run.
func runChunkScenario(t *testing.T, precarve bool) chunkRun {
	t.Helper()
	const nodes = 600
	f := newFixture(Config{}, 250)
	for i := int32(0); i < nodes; i++ {
		f.grid.Update(i, geom.V(float64(i)*0.4, 0))
	}
	f.grid.Update(nodes, geom.V(float64(nodes-1)*0.4+240, 0))
	if precarve {
		for i := int32(0); i <= nodes; i++ {
			f.layer.state(i)
		}
	}
	var r chunkRun
	// Digests are taken only once node 0's frame is on the air: before
	// that, a node that has neither sent nor received digests as absent
	// without its state and as idle with it.
	sum := func() {
		d := digest.New()
		f.layer.DigestInto(d)
		r.digests = append(r.digests, d.Sum())
	}
	replied := make([]bool, nodes)
	f.layer.deliver = func(to int32, fr Frame) {
		if fr.From != 0 {
			return
		}
		recs := f.layer.nodes[0].txRecs
		if r.firstRecs == nil {
			r.firstRecs = slices.Clone(recs)
		}
		r.lastRecs = slices.Clone(recs)
		if to == nodes-1 {
			r.arrivals = append(r.arrivals, fr.attempts)
		}
		if to == 1 || to == nodes-1 {
			sum()
		}
		if to%8 == 0 && !replied[to] {
			replied[to] = true
			f.layer.Send(Frame{From: to, To: Broadcast, Size: 20})
		}
	}
	f.layer.fail = func(from int32, fr Frame) {
		if from == 0 {
			r.fails++
		}
	}
	f.layer.Send(Frame{From: 0, To: nodes - 1, Size: 200})
	f.layer.Send(Frame{From: nodes, To: Broadcast, Size: 1500})
	for _, at := range []float64{1e-2, 0.1} {
		f.eng.At(at, sum)
	}
	if err := f.eng.Run(1); err != nil {
		t.Fatal(err)
	}
	sum()
	r.counters = [4]int{f.col.MACTransmits, f.col.MACDelivered, f.col.MACCollisions, f.col.MACChannelLoss}
	return r
}

// TestDeliverUpcallSendsAcrossChunks pins the reason sender states live in
// chunks that never move: finishTx holds the sender's state while its
// deliver upcall makes first-time senders, and a state that moved under it
// would take the resolution's writes — the ARQ outcome, the retry, the
// released records — into a stale copy. The run must equal one in which
// every state was carved before it started.
func TestDeliverUpcallSendsAcrossChunks(t *testing.T) {
	lazy := runChunkScenario(t, false)
	eager := runChunkScenario(t, true)
	if len(eager.firstRecs) < 500 || len(eager.arrivals) == 0 || eager.arrivals[0] == 0 {
		t.Fatalf("scenario drifted: %d records, addressee reached on attempts %v; want ≥500 records and a retried unicast",
			len(eager.firstRecs), eager.arrivals)
	}
	if !slices.Equal(lazy.firstRecs, eager.firstRecs) || !slices.Equal(lazy.lastRecs, eager.lastRecs) {
		t.Errorf("node 0's reception records differ from the pre-carved run")
	}
	if !slices.Equal(lazy.arrivals, eager.arrivals) || lazy.fails != eager.fails {
		t.Errorf("ARQ outcome: addressee reached on attempts %v with %d failures, pre-carved run %v with %d",
			lazy.arrivals, lazy.fails, eager.arrivals, eager.fails)
	}
	if lazy.counters != eager.counters {
		t.Errorf("MAC counters (tx, delivered, collided, lost) = %v, pre-carved run %v", lazy.counters, eager.counters)
	}
	if !slices.Equal(lazy.digests, eager.digests) {
		t.Errorf("layer digests %x, pre-carved run %x", lazy.digests, eager.digests)
	}
}

// TestFirstSendsAllocateByTheChunk pins what a node's first Send costs:
// its sender state and first queue buffer come out of a shared chunk, the
// backoff and end-of-airtime events are handler events, and the reception
// records of a frame come from the layer's free list. A thousand fresh
// senders, each run to completion, allocate a handful of chunks.
func TestFirstSendsAllocateByTheChunk(t *testing.T) {
	const senders = 1000
	f := newFixture(Config{}, 250)
	for i := int32(0); i <= senders; i++ {
		f.grid.Update(i, geom.V(float64(i)*300, 0)) // nobody in range: no receptions
	}
	// warm-up: node `senders` covers every ID below it and sizes the queue
	f.layer.Send(Frame{From: senders, To: Broadcast, Size: 100})
	if err := f.eng.Run(1); err != nil {
		t.Fatal(err)
	}
	f.layer.col = metrics.NewCollector()
	now := 1.0
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for id := int32(0); id < senders; id++ {
		f.layer.Send(Frame{From: id, To: Broadcast, Size: 100})
		now++
		if err := f.eng.Run(now); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if f.layer.col.MACTransmits != senders {
		t.Fatalf("%d transmissions, want %d", f.layer.col.MACTransmits, senders)
	}
	if got := after.Mallocs - before.Mallocs; got > senders/64 {
		t.Fatalf("the first Send of %d nodes allocated %d objects, want at most %d", senders, got, senders/64)
	}
}
