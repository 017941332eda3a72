package flood

import (
	"testing"

	"github.com/vanetlab/relroute/internal/netstack"
	"github.com/vanetlab/relroute/internal/routing/routetest"
)

// retryWindow is how long a Biswas send can stay pending: the first wait
// and one more per retry, after which the kept copy goes back.
const retryWindow = (maxRetries + 1) * ackTimeout

// lonely is one Biswas node on its own, started: no copy ever comes back
// to acknowledge a send, so every send runs all its retries.
func lonely(tb testing.TB) (*netstack.World, *Biswas) {
	var b *Biswas
	factory := NewBiswas()
	w, _ := routetest.World(tb, 1, routetest.Chain(1, 0, 0), func() netstack.Router {
		b = factory().(*Biswas)
		return b
	})
	w.StartRun()
	if err := w.AdvanceTo(0.5); err != nil {
		tb.Fatal(err)
	}
	return w, b
}

// The retry state is keyed by UID alone, which holds only if a UID never
// reaches Outbound again while it is pending: the flood's duplicate
// cache must still hold a rebroadcast UID when its retries end.
func TestDuplicateCacheOutlivesRetries(t *testing.T) {
	w, b := lonely(t)
	c := w.Collector()
	copyOf := func() *netstack.Packet {
		pkt := b.API.NewPacket()
		*pkt = netstack.Packet{UID: 77, Kind: netstack.KindData, Src: 9, Dst: 8, TTL: 4, Size: 64}
		return pkt
	}
	start := w.Engine().Now()
	b.HandlePacket(copyOf())
	if err := w.AdvanceTo(start + retryWindow - 0.01); err != nil {
		t.Fatal(err)
	}
	if len(b.retry) != 1 || c.MACTransmits != 1+maxRetries {
		t.Fatalf("%d pending, %d transmissions before the window ends; want the send pending after 1+%d", len(b.retry), c.MACTransmits, maxRetries)
	}
	if err := w.AdvanceTo(start + retryWindow); err != nil {
		t.Fatal(err)
	}
	if len(b.retry) != 0 {
		t.Fatal("the send is still pending when its retries are spent")
	}
	b.HandlePacket(copyOf())
	if err := w.AdvanceTo(start + retryWindow + 0.1); err != nil {
		t.Fatal(err)
	}
	if len(b.retry) != 0 || c.MACTransmits != 1+maxRetries {
		t.Fatalf("%d pending, %d transmissions: a copy heard as the retries end was news to the flood", len(b.retry), c.MACTransmits)
	}
}

// Retry timers fire in the order they were armed, and one whose send was
// acked since is skipped: of two sends made at once, the first acked, only
// the second retries, all its retries, and its kept copy then goes back.
func TestBiswasRetriesSkipAckedSends(t *testing.T) {
	w, b := lonely(t)
	c := w.Collector()
	start := w.Engine().Now()
	b.Originate(8, 64)
	b.Originate(8, 64)
	acked := b.API.NewPacket()
	*acked = netstack.Packet{UID: b.armed[b.head].uid, Kind: netstack.KindData, Src: b.API.Self(), Dst: 8, TTL: 4, Size: 64}
	b.HandlePacket(acked)
	if err := w.AdvanceTo(start + retryWindow + 0.01); err != nil {
		t.Fatal(err)
	}
	if len(b.retry) != 0 || c.MACTransmits != 2+maxRetries {
		t.Fatalf("%d pending, %d transmissions; want none pending after 2 sends and %d retries of the unacked one",
			len(b.retry), c.MACTransmits, maxRetries)
	}
}

// A warm send and its retries allocate nothing: every retry timer runs the
// one func the router stored at its first send, and the retries send
// pooled copies.
func TestBiswasSendAllocs(t *testing.T) {
	w, b := lonely(t)
	now := w.Engine().Now()
	send := func() {
		b.Originate(8, 64)
		now += retryWindow + 0.01
		if err := w.AdvanceTo(now); err != nil {
			t.Fatal(err)
		}
	}
	send()
	const runs = 100
	if got := testing.AllocsPerRun(runs, send); got != 0 {
		t.Fatalf("a send and its retries allocate %.1f objects, want 0", got)
	}
	if got, want := w.Collector().MACTransmits, (runs+2)*(1+maxRetries); got != want {
		t.Fatalf("%d transmissions, want %d: every send and all its retries", got, want)
	}

	const sends = 20
	retry := func() {
		now += ackTimeout
		if err := w.AdvanceTo(now); err != nil {
			t.Fatal(err)
		}
	}
	// a first batch grows the pool to hold every kept copy at once
	for range sends {
		b.Originate(8, 64)
	}
	for range 1 + maxRetries {
		retry()
	}
	for range sends {
		b.Originate(8, 64)
	}
	// the second batch's first round of retries warms up; the measured
	// runs are its second and third rounds, and the round that gives the
	// kept copies back
	if got := testing.AllocsPerRun(maxRetries, retry); got != 0 {
		t.Fatalf("a round of %d retries allocates %.1f objects, want 0", sends, got)
	}
	if len(b.retry) != 0 {
		t.Fatalf("%d sends still pending after their retries", len(b.retry))
	}
}

func BenchmarkBiswasSend(bm *testing.B) {
	w, b := lonely(bm)
	now := w.Engine().Now()
	bm.ReportAllocs()
	for bm.Loop() {
		b.Originate(8, 64)
		now += retryWindow + 0.01
		if err := w.AdvanceTo(now); err != nil {
			bm.Fatal(err)
		}
	}
}
