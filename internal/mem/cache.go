// Package mem implements the simulated memory hierarchy: set-associative
// write-back caches with LRU replacement, miss-status holding registers
// (MSHRs) with secondary-miss merging at the L1D, a stride/stream hardware
// prefetcher (up to 16 streams, attachable at the LLC or at every level),
// and a DDR3-style DRAM model with ranks, banks, open-row timing and data
// bus serialisation.
//
// The hierarchy is a timing model: caches store tags, not data. An access
// walks the levels at the moment the core executes the memory operation and
// returns the cycle at which the data arrives; lines are installed
// immediately with a readyAt timestamp, so later accesses to an in-flight
// line naturally merge with the outstanding fill.
package mem

import "rarsim/internal/reuse"

// LineSize is the cache line size in bytes at every level.
const LineSize = 64

const lineShift = 6

// LineAddr returns the line-aligned address of addr.
func LineAddr(addr uint64) uint64 { return addr &^ (LineSize - 1) }

// cacheLine is one way's tag state. key packs the line tag (addr>>6, at
// most 58 bits) with the valid and dirty flags, tag<<2|dirty<<1|valid,
// which keeps a line at 24 bytes where separate flag fields padded it to
// 32: the tag arrays are most of a simulated core's memory.
type cacheLine struct {
	key     uint64
	readyAt uint64 // cycle the fill completes; 0 for lines present "forever"
	lastUse uint64 // LRU timestamp
}

// cacheLine.key flag bits.
const (
	lineValid = 1 << iota
	lineDirty
)

// lineKey is the key of a valid, clean line holding addr. A line holds
// addr exactly when its key, dirty bit masked off, equals lineKey(addr).
func lineKey(addr uint64) uint64 { return addr>>lineShift<<2 | lineValid }

// Cache is one set-associative, write-back, write-allocate cache level.
type Cache struct {
	name    string
	ways    int
	setMask uint64
	latency uint64
	lines   []cacheLine // sets*ways, way-major within a set

	// stats
	accesses uint64
	misses   uint64
}

// NewCache builds a cache of sizeBytes with the given associativity and
// access latency (cycles). sizeBytes must be a multiple of ways*LineSize
// and the resulting set count must be a power of two.
func NewCache(name string, sizeBytes, ways int, latency uint64) *Cache {
	return reuseCache(nil, name, sizeBytes, ways, latency)
}

// reuseCache is NewCache rebuilt into old, a cache whose run has
// finished: every field is reset and the tag array is re-zeroed in place
// when it is large enough. A nil old builds a fresh cache.
func reuseCache(old *Cache, name string, sizeBytes, ways int, latency uint64) *Cache {
	sets := sizeBytes / (ways * LineSize)
	if sets <= 0 || sets&(sets-1) != 0 {
		panic("mem: " + name + ": set count must be a power of two")
	}
	c := old
	if c == nil {
		c = new(Cache)
	}
	*c = Cache{
		name:    name,
		ways:    ways,
		setMask: uint64(sets - 1),
		latency: latency,
		lines:   reuse.Zeroed(c.lines, sets*ways),
	}
	return c
}

// Name returns the cache's name ("L1D", "L2", ...).
func (c *Cache) Name() string { return c.name }

// Latency returns the lookup latency in cycles.
func (c *Cache) Latency() uint64 { return c.latency }

func (c *Cache) set(addr uint64) []cacheLine {
	s := (addr >> lineShift) & c.setMask
	return c.lines[s*uint64(c.ways) : (s+1)*uint64(c.ways)]
}

// Lookup probes the cache at cycle now. On a hit it returns the cycle the
// data is available (now+latency, or later if the line's fill is still in
// flight) and refreshes LRU. markDirty sets the dirty bit on a hit.
func (c *Cache) Lookup(addr, now uint64, markDirty bool) (availAt uint64, hit bool) {
	c.accesses++
	key := lineKey(addr)
	set := c.set(addr)
	for i := range set {
		l := &set[i]
		if l.key&^lineDirty == key {
			l.lastUse = now
			if markDirty {
				l.key |= lineDirty
			}
			avail := now + c.latency
			if l.readyAt > avail {
				avail = l.readyAt
			}
			return avail, true
		}
	}
	c.misses++
	return 0, false
}

// Contains reports whether the line holding addr is present, without
// touching LRU or stats.
func (c *Cache) Contains(addr uint64) bool {
	key := lineKey(addr)
	set := c.set(addr)
	for i := range set {
		if set[i].key&^lineDirty == key {
			return true
		}
	}
	return false
}

// Insert installs the line holding addr with the given fill-completion
// cycle, evicting the LRU way. It returns the victim's address and whether
// the victim was dirty (needs a writeback).
func (c *Cache) Insert(addr, readyAt, now uint64, dirty bool) (victimAddr uint64, writeback bool) {
	key := lineKey(addr)
	if dirty {
		key |= lineDirty
	}
	set := c.set(addr)
	victim := &set[0]
	for i := range set {
		l := &set[i]
		if l.key&^lineDirty == key&^lineDirty {
			// Already present (racing fills merge).
			if readyAt < l.readyAt {
				l.readyAt = readyAt
			}
			l.key |= key & lineDirty
			return 0, false
		}
		if l.key&lineValid == 0 {
			victim = l
			break
		}
		if l.lastUse < victim.lastUse {
			victim = l
		}
	}
	victimAddr = victim.key >> 2 << lineShift
	writeback = victim.key&(lineValid|lineDirty) == lineValid|lineDirty
	*victim = cacheLine{key: key, readyAt: readyAt, lastUse: now}
	return victimAddr, writeback
}

// Accesses returns the number of lookups performed.
func (c *Cache) Accesses() uint64 { return c.accesses }

// Misses returns the number of lookups that missed.
func (c *Cache) Misses() uint64 { return c.misses }

// MissRate returns misses/accesses.
func (c *Cache) MissRate() float64 {
	if c.accesses == 0 {
		return 0
	}
	return float64(c.misses) / float64(c.accesses)
}
