package routing

import (
	"math"
	"math/bits"

	"github.com/vanetlab/relroute/internal/netstack"
)

// DupKey identifies a flooded packet instance: origin plus origin-local
// sequence number.
type DupKey struct {
	Origin netstack.NodeID
	Seq    uint64
}

// dupEmpty is the Origin of an empty table slot and of "no last key". Node
// IDs are dense from 0 and Broadcast is −1, so no key a router builds
// carries it; Seen must not be called with one that does.
const dupEmpty = netstack.NodeID(math.MinInt32)

// dupEntry is one table slot: the key and when it was first seen.
type dupEntry struct {
	key DupKey
	at  float64
}

// DupCache remembers recently seen flooded packets so they are forwarded
// at most once. Entries expire after TTL seconds to bound memory.
//
// In a broadcast storm a node hears the same packet from every neighbor in
// turn, so almost every call repeats the key answered last: that key is
// kept in the struct itself and compared before anything else is touched.
// Behind it is one flat open-addressed table with linear probing, allocated
// on the first insert and doubled at ¾ load. Entries leave only in the
// sweep, which runs once per TTL on the first call at or after sweepAt.
type DupCache struct {
	last    DupKey // the key Seen answered last
	sweepAt float64
	ttl     float64
	n       int32 // live entries
	shift   uint8 // 64 − log2(len(tab))
	tab     []dupEntry
}

// NewDupCache returns a cache whose entries persist for ttl seconds.
func NewDupCache(ttl float64) *DupCache {
	if ttl <= 0 {
		ttl = 30
	}
	return &DupCache{ttl: ttl, last: DupKey{Origin: dupEmpty}}
}

// Seen records the key and reports whether it was already present.
func (c *DupCache) Seen(k DupKey, now float64) bool {
	if now >= c.sweepAt {
		c.sweep(now)
	} else if k == c.last {
		return true
	}
	c.last = k
	if c.tab == nil {
		c.grow()
	}
	i, found := c.find(k)
	if found {
		return true
	}
	if int(c.n+1)*4 > len(c.tab)*3 {
		c.grow()
		i, _ = c.find(k)
	}
	c.tab[i] = dupEntry{key: k, at: now}
	c.n++
	return false
}

// Len returns the number of live entries (after lazily expiring on Seen).
func (c *DupCache) Len() int { return int(c.n) }

// home is the slot k hashes to: the top bits of a Fibonacci hash over both
// halves of the key (flooders vary Seq, discovery floods vary Origin).
func (c *DupCache) home(k DupKey) int {
	return int((k.Seq ^ uint64(uint32(k.Origin))<<32) * 0x9E3779B97F4A7C15 >> c.shift)
}

// find probes from k's home slot and returns k's slot, or the empty slot
// that ends its probe run. The table is never full, so the run ends.
func (c *DupCache) find(k DupKey) (slot int, found bool) {
	mask := len(c.tab) - 1
	i := c.home(k)
	for c.tab[i].key.Origin != dupEmpty {
		if c.tab[i].key == k {
			return i, true
		}
		i = (i + 1) & mask
	}
	return i, false
}

// grow is the only place the table's capacity changes: 8 slots, then double,
// every live entry re-inserted with its time.
func (c *DupCache) grow() {
	old := c.tab
	size := 2 * len(old)
	if size == 0 {
		size = 8
	}
	c.tab = make([]dupEntry, size)
	for i := range c.tab {
		c.tab[i].key.Origin = dupEmpty
	}
	c.shift = uint8(64 - bits.TrailingZeros(uint(size)))
	for _, e := range old {
		if e.key.Origin != dupEmpty {
			i, _ := c.find(e.key)
			c.tab[i] = e
		}
	}
}

// sweep drops every entry older than the TTL, in place, and schedules the
// next sweep one TTL on.
func (c *DupCache) sweep(now float64) {
	c.sweepAt = now + c.ttl
	for i := 0; i < len(c.tab); {
		if e := &c.tab[i]; e.key.Origin != dupEmpty && now-e.at > c.ttl {
			c.remove(i) // may pull a later entry into slot i: look again
			continue
		}
		i++
	}
}

// remove empties slot i by backward-shift deletion: each later entry of the
// probe run whose home slot is not inside the gap it would jump moves into
// the hole, so every remaining key stays reachable from its home slot.
// Entries only move backwards within the run, which for the sweep means an
// unvisited one never lands behind the scan.
func (c *DupCache) remove(i int) {
	mask := len(c.tab) - 1
	for j := (i + 1) & mask; c.tab[j].key.Origin != dupEmpty; j = (j + 1) & mask {
		if h := c.home(c.tab[j].key); (j-h)&mask >= (j-i)&mask {
			c.tab[i] = c.tab[j]
			i = j
		}
	}
	c.tab[i].key.Origin = dupEmpty
	c.n--
}
