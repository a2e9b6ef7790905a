package sim

// cache models one processor's cache (or coherent local memory) at
// footprint granularity: a footprint is a named block of data an
// iteration touches, e.g. "row i of matrix A". This matches the
// granularity at which the paper reasons about affinity and keeps large
// problems simulable (see DESIGN.md §2). Replacement is LRU by bytes.
//
// Footprints are addressed by dense slots, which the engine interns
// from footprint IDs once per touch. Entries live in a slot-indexed
// slice linked into an LRU list by int32 indices, so a miss allocates
// nothing once the slice covers the slot.
type cache struct {
	capacity int
	used     int
	n        int
	entries  []cacheEntry
	// Doubly-linked LRU list of resident slots; head is most recently
	// used, and nilSlot ends the list.
	head, tail int32
}

// nilSlot is the list terminator.
const nilSlot int32 = -1

type cacheEntry struct {
	bytes      int
	prev, next int32
	resident   bool
}

// newCache creates a cache with the given byte capacity. Capacity 0
// models a machine that never caches shared data locally.
func newCache(capacity int) *cache {
	return &cache{capacity: capacity, head: nilSlot, tail: nilSlot}
}

// Contains reports whether footprint slot s is resident.
func (c *cache) Contains(s int32) bool {
	return int(s) < len(c.entries) && c.entries[s].resident
}

// Used returns resident bytes.
func (c *cache) Used() int { return c.used }

// Len returns the number of resident footprints.
func (c *cache) Len() int { return c.n }

// Touch records a reference to footprint slot s of the given size. If
// the footprint is resident it becomes most-recently-used and Touch
// returns true (a hit). Otherwise the footprint is loaded, evicting LRU
// entries as needed (onEvict is called for each, if non-nil), and Touch
// returns false. Footprints larger than the whole cache are never
// retained.
func (c *cache) Touch(s int32, bytes int, onEvict func(s int32)) bool {
	if c.Contains(s) {
		e := &c.entries[s]
		if bytes > e.bytes {
			// Footprint grew (e.g. a row touched more widely); account
			// for the extra bytes.
			c.used += bytes - e.bytes
			e.bytes = bytes
			c.evictOver(s, onEvict)
		}
		c.moveToFront(s)
		return true
	}
	if bytes > c.capacity {
		return false
	}
	for int(s) >= len(c.entries) {
		c.entries = append(c.entries, cacheEntry{})
	}
	c.entries[s] = cacheEntry{bytes: bytes, resident: true}
	c.n++
	c.pushFront(s)
	c.used += bytes
	c.evictOver(s, onEvict)
	return false
}

// evictOver evicts LRU entries (never `keep`) until used <= capacity.
func (c *cache) evictOver(keep int32, onEvict func(s int32)) {
	for c.used > c.capacity && c.tail != nilSlot {
		victim := c.tail
		if victim == keep {
			// keep is the only entry left; nothing else to evict.
			if c.entries[victim].prev == nilSlot {
				return
			}
			victim = c.entries[victim].prev
		}
		c.remove(victim)
		if onEvict != nil {
			onEvict(victim)
		}
	}
}

// Invalidate removes footprint slot s (coherence invalidation on a
// remote write). It is a no-op if the footprint is not resident.
func (c *cache) Invalidate(s int32) {
	if c.Contains(s) {
		c.remove(s)
	}
}

// Clear drops everything (used when a program wants cold caches).
func (c *cache) Clear() {
	for s := c.head; s != nilSlot; {
		next := c.entries[s].next
		c.entries[s] = cacheEntry{}
		s = next
	}
	c.head, c.tail, c.used, c.n = nilSlot, nilSlot, 0, 0
}

func (c *cache) pushFront(s int32) {
	e := &c.entries[s]
	e.prev = nilSlot
	e.next = c.head
	if c.head != nilSlot {
		c.entries[c.head].prev = s
	}
	c.head = s
	if c.tail == nilSlot {
		c.tail = s
	}
}

// unlink detaches slot s from the LRU list.
func (c *cache) unlink(s int32) {
	e := &c.entries[s]
	if e.prev != nilSlot {
		c.entries[e.prev].next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nilSlot {
		c.entries[e.next].prev = e.prev
	} else {
		c.tail = e.prev
	}
}

func (c *cache) remove(s int32) {
	c.unlink(s)
	c.used -= c.entries[s].bytes
	c.n--
	c.entries[s] = cacheEntry{}
}

func (c *cache) moveToFront(s int32) {
	if c.head == s {
		return
	}
	c.unlink(s)
	c.pushFront(s)
}

// directory tracks which processors hold a copy of each footprint, for
// write-invalidate coherence. Processor sets are bitmasks, so the
// simulator supports up to 64 processors — enough for the paper's
// largest machine (the 64-processor KSR-1). holders is indexed by
// footprint slot.
type directory struct {
	holders []uint64
}

// set stores slot s's holder mask.
func (d *directory) set(s int32, mask uint64) {
	for int(s) >= len(d.holders) {
		d.holders = append(d.holders, 0)
	}
	d.holders[s] = mask
}

func (d *directory) holdersOf(s int32) uint64 {
	if int(s) < len(d.holders) {
		return d.holders[s]
	}
	return 0
}

func (d *directory) addHolder(s int32, p int)    { d.set(s, d.holdersOf(s)|1<<uint(p)) }
func (d *directory) dropHolder(s int32, p int)   { d.set(s, d.holdersOf(s)&^(1<<uint(p))) }
func (d *directory) setExclusive(s int32, p int) { d.set(s, 1<<uint(p)) }

// reset forgets every holder (all caches were flushed).
func (d *directory) reset() { clear(d.holders) }
