package mac

import (
	"testing"

	"github.com/vanetlab/relroute/internal/digest"
	"github.com/vanetlab/relroute/internal/geom"
)

// The layer's digest is part of every checkpoint and protocol golden, so
// where a field lives must not show in it. Node 4 only ever receives, IDs 2
// and 3 are never touched, node 1 receives and then sends: the sums below
// were taken from the layout that kept the arrival history inside
// nodeState, with a frame on the air and after the queues drained.
func TestDigestIndependentOfStateLayout(t *testing.T) {
	f := newFixture(Config{}, 250)
	f.grid.Update(0, geom.V(0, 0))
	f.grid.Update(1, geom.V(100, 0))
	f.grid.Update(4, geom.V(200, 0))
	sum := func() uint64 {
		d := digest.New()
		f.layer.DigestInto(d)
		return d.Sum()
	}
	f.layer.Send(Frame{From: 0, To: Broadcast, Size: 400})
	f.layer.Send(Frame{From: 0, To: 1, Size: 200})
	f.eng.At(0.0021, func() { f.layer.Send(Frame{From: 1, To: Broadcast, Size: 300}) })
	if err := f.eng.Run(0.0022); err != nil {
		t.Fatal(err)
	}
	if got := sum(); got != 0x495858398dd1d63b {
		t.Errorf("digest with a frame on the air = %#x, want 0x495858398dd1d63b", got)
	}
	if err := f.eng.Run(1); err != nil {
		t.Fatal(err)
	}
	if got := sum(); got != 0x120217ecd3f6f1d2 {
		t.Errorf("digest after the queues drained = %#x, want 0x120217ecd3f6f1d2", got)
	}
	if f.col.MACTransmits != 3 || len(f.rx) != 6 {
		t.Fatalf("%d transmissions, %d receptions: the scenario the sums were taken from has 3 and 6", f.col.MACTransmits, len(f.rx))
	}
}
