package linkstate

import "math"

// Store holds the entries, key arrays and inboxes of many monitors: a world
// keeps one and builds every node's monitor from it (Store.Monitor).
// Entries, key arrays and inbox records are carved from chunks that never
// move, so an entry keeps its address for as long as the store lives and
// nothing a table outgrows is left behind for the collector. A chunk is as
// large as everything of its kind carved before it, between a first size
// and a cap, as the MAC's sender states are: a 60-vehicle world takes a
// few small chunks, a 5,000-vehicle highway one allocation per 512 links.
//
// An entry a table frees stays that table's, named by its keys past the
// live ones, and is reused before the table carves another. A key array a
// table outgrows comes back to the store (putKeys), on a free list of its
// capacity, and the next growth into that capacity takes it before it
// carves. The zero Store is ready to use; one that has carved must not be
// copied.
type Store struct {
	entries []entry // unused tail of the newest entry chunk
	keys    []key   // unused tail of the newest key chunk
	records []heard // unused tail of the newest inbox chunk
	// freeKeys[c] lists the outgrown key arrays of the c-th capacity of the
	// growth rule (8, 12, 18, …; keyClass); a table larger than the last
	// class leaves its outgrown keys to the collector.
	freeKeys [keyClasses]*keyList
	// spareLists are list nodes whose arrays were taken again, and lists
	// the unused tail of the newest node chunk.
	spareLists *keyList
	lists      []keyList
	// carved counts what the chunks have handed out so far.
	carvedEntries, carvedKeys, carvedRecords, carvedLists int
}

// keyList is one outgrown key array on a free list.
type keyList struct {
	keys []key
	next *keyList
}

// keyClasses is how many capacities of the growth rule keep a free list:
// 8 to 3,444 keys.
const keyClasses = 16

// Chunk sizes, in entries, keys and inbox records. An entry is 120 bytes,
// a key 16 and an inbox 16 records of 56, so any cap is a chunk of about
// 60 KB. The first key chunk is small, like the first entry chunk: a
// 60-vehicle world needs about 2,000 keys.
const (
	minEntryChunk  = 16
	maxEntryChunk  = 512
	minKeyChunk    = 16
	maxKeyChunk    = 4096
	minRecordChunk = inboxCap
	maxRecordChunk = 64 * inboxCap
	minListChunk   = 16
	maxListChunk   = 512
)

// Monitor returns a monitor that carves its entries, keys and inbox from
// s, whose links expire ttl seconds after the last beacon, predicting with
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

// getKeys returns an empty key array of capacity c, a capacity of the
// growth rule: one a table outgrew, or a fresh one carved.
func (s *Store) getKeys(c int) []key {
	if k := keyClass(c); k < keyClasses && s.freeKeys[k] != nil {
		l := s.freeKeys[k]
		s.freeKeys[k], l.next, s.spareLists = l.next, s.spareLists, l
		keys := l.keys
		l.keys = nil
		return keys[:0]
	}
	return carve(&s.keys, &s.carvedKeys, c, minKeyChunk, maxKeyChunk)[:0]
}

// putKeys takes back a key array its table outgrew, for the next growth
// into its capacity.
func (s *Store) putKeys(keys []key) {
	k := keyClass(cap(keys))
	if k >= keyClasses {
		return
	}
	l := s.spareLists
	if l != nil {
		s.spareLists = l.next
	} else {
		l = &carve(&s.lists, &s.carvedLists, 1, minListChunk, maxListChunk)[0]
	}
	l.keys, l.next, s.freeKeys[k] = keys, s.freeKeys[k], l
}

// keyClass is the position of c in the capacities the growth rule makes:
// 8, then each half as large again (12, 18, 27, 40, …).
func keyClass(c int) int {
	k := 0
	for n := 8; n < c; n += n / 2 {
		k++
	}
	return k
}

// carve takes n values off the front of *spare, first starting a chunk of
// min(max(*carved, lo), hi) values, or n if that is more, when fewer than
// n are left. Entries and inboxes are carved with lo and hi multiples of
// n, so their chunks leave no tail they cannot use; a key array that does
// not fit leaves the tail of its chunk unused. The slice it returns is
// capped at n, so appending to it never reaches the next holder's values.
func carve[T any](spare *[]T, carved *int, n, lo, hi int) []T {
	if len(*spare) < n {
		*spare = make([]T, max(n, min(max(*carved, lo), hi)))
	}
	s := (*spare)[:n:n]
	*spare = (*spare)[n:]
	*carved += n
	return s
}
