package linkstate

import "math"

// Store holds the entries and inboxes of many monitors: a world keeps one
// and builds every node's monitor from it (Store.Monitor). Entries and
// inbox records are carved from chunks that never move, so an entry keeps
// its address for as long as the store lives, a table that grows copies
// only its keys, and nothing a table outgrows is left behind for the
// collector. A chunk is as large as everything carved before it, between
// a first size and a cap, as the MAC's sender states are: a 60-vehicle
// world takes a few small chunks, a 5,000-vehicle highway one allocation
// per 512 links.
//
// A store hands nothing back: an entry a table frees stays that table's,
// named by its keys past the live ones, and is reused before the table
// carves another. The zero Store is ready to use; one that has carved
// must not be copied.
type Store struct {
	entries []entry // unused tail of the newest entry chunk
	records []heard // unused tail of the newest inbox chunk
	// carved counts what the chunks have handed out so far.
	carvedEntries, carvedRecords int
}

// Chunk sizes, in entries and in inbox records. An entry is 120 bytes and
// an inbox 16 records of 56, so either cap is a chunk of about 60 KB.
const (
	minEntryChunk  = 16
	maxEntryChunk  = 512
	minRecordChunk = inboxCap
	maxRecordChunk = 64 * inboxCap
)

// Monitor returns a monitor that carves its entries and inbox from s,
// whose links expire ttl seconds after the last beacon, predicting with
// the given estimator (nil means the default composite estimator) over
// communication range rangeM. It allocates nothing: the inbox is carved
// on the first beacon and an entry when a link is first heard, so a world
// that never beacons allocates nothing for its tables.
func (s *Store) Monitor(ttl, rangeM float64, est Estimator) Monitor {
	if est == nil {
		est = MustNew("", Config{Range: rangeM})
	}
	return Monitor{store: s, ttl: ttl, rangeM: rangeM, est: est, oldest: math.Inf(1)}
}

// entry carves one zero entry.
func (s *Store) entry() *entry {
	return &carve(&s.entries, &s.carvedEntries, 1, minEntryChunk, maxEntryChunk)[0]
}

// inbox carves an empty inbox of inboxCap records.
func (s *Store) inbox() []heard {
	return carve(&s.records, &s.carvedRecords, inboxCap, minRecordChunk, maxRecordChunk)[:0]
}

// carve takes n values off the front of *spare, first starting a chunk of
// min(max(*carved, lo), hi) values when fewer than n are left; lo and hi
// are multiples of n, so no chunk leaves a tail it cannot use. The slice
// it returns is capped at n, so appending to it never reaches the next
// holder's values.
func carve[T any](spare *[]T, carved *int, n, lo, hi int) []T {
	if len(*spare) < n {
		*spare = make([]T, min(max(*carved, lo), hi))
	}
	s := (*spare)[:n:n]
	*spare = (*spare)[n:]
	*carved += n
	return s
}
