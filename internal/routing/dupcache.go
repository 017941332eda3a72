package routing

import (
	"cmp"
	"math"
	"slices"

	"github.com/vanetlab/relroute/internal/netstack"
)

// DupKey identifies a flooded packet instance: origin plus origin-local
// sequence number. Seq must be below 2^32 (Seen panics otherwise); packet
// UIDs and request numbers count from 1 and stay far below it.
type DupKey struct {
	Origin netstack.NodeID
	Seq    uint64
}

// dupEntry is one live key, packed as Seq<<32 | uint32(Origin), and when it
// was first seen.
type dupEntry struct {
	key uint64
	at  float64
}

// DupCache remembers recently seen flooded packets so they are forwarded
// at most once. Entries expire after TTL seconds to bound memory.
//
// In a broadcast storm a node hears the same packet from every neighbor in
// turn, so almost every call repeats the key answered last: that key is
// kept in the struct itself and compared before anything else is touched.
// Behind it the live keys sit in one slice sorted by packed key, allocated
// at 8 entries on the first insert and grown by append. Flood UIDs arrive
// nearly in order, so a new key usually lands past the maximum and is
// appended; any other is binary-searched and inserted in place. Entries
// leave only in the sweep, which runs once per TTL on the first call at or
// after sweepAt.
type DupCache struct {
	last    DupKey // the key Seen answered last; a Seq no key may carry before the first call
	sweepAt float64
	ttl     float64
	ents    []dupEntry
}

// NewDupCache returns a cache whose entries persist for ttl seconds.
func NewDupCache(ttl float64) *DupCache {
	if ttl <= 0 {
		ttl = 30
	}
	return &DupCache{ttl: ttl, last: DupKey{Seq: math.MaxUint32 + 1}}
}

// Seen records the key and reports whether it was already present.
func (c *DupCache) Seen(k DupKey, now float64) bool {
	if k.Seq > math.MaxUint32 {
		panic("routing: DupKey.Seq above 2^32-1")
	}
	if now >= c.sweepAt {
		c.sweepAt = now + c.ttl
		c.ents = slices.DeleteFunc(c.ents, func(e dupEntry) bool { return now-e.at > c.ttl })
	} else if k == c.last {
		return true
	}
	c.last = k
	e := dupEntry{key: k.Seq<<32 | uint64(uint32(k.Origin)), at: now}
	if n := len(c.ents); n == 0 || c.ents[n-1].key < e.key {
		if c.ents == nil {
			c.ents = make([]dupEntry, 0, 8)
		}
		c.ents = append(c.ents, e)
		return false
	}
	i, found := slices.BinarySearchFunc(c.ents, e.key, func(x dupEntry, key uint64) int { return cmp.Compare(x.key, key) })
	if !found {
		c.ents = slices.Insert(c.ents, i, e)
	}
	return found
}
