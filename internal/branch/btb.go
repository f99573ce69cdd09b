package branch

import "rarsim/internal/reuse"

// BTB is a direct-mapped branch target buffer. The front-end consults it
// for predicted-taken branches; a BTB miss on a taken branch costs a
// front-end re-steer, modelled by the core as a short fetch bubble.
type BTB struct {
	entries []btbEntry
	mask    uint64

	lookups uint64
	misses  uint64
}

// btbEntry orders target first so the entry packs into 16 bytes.
type btbEntry struct {
	target uint64
	tag    uint32
	valid  bool
}

// NewBTB builds a BTB with 2^logSize entries.
func NewBTB(logSize int) *BTB { return ReuseBTB(nil, logSize) }

// ReuseBTB is NewBTB rebuilt into old, a BTB whose run has finished: the
// entries are invalidated in place and the counters reset. A nil old
// builds a fresh BTB.
func ReuseBTB(old *BTB, logSize int) *BTB {
	b := old
	if b == nil {
		b = new(BTB)
	}
	*b = BTB{
		entries: reuse.Zeroed(b.entries, 1<<logSize),
		mask:    (1 << logSize) - 1,
	}
	return b
}

// Lookup returns the stored target for the branch at pc.
func (b *BTB) Lookup(pc uint64) (target uint64, hit bool) {
	b.lookups++
	e := &b.entries[(pc>>2)&b.mask]
	if e.valid && e.tag == uint32(pc>>2) {
		return e.target, true
	}
	b.misses++
	return 0, false
}

// Insert records the taken target of the branch at pc.
func (b *BTB) Insert(pc, target uint64) {
	e := &b.entries[(pc>>2)&b.mask]
	*e = btbEntry{tag: uint32(pc >> 2), target: target, valid: true}
}

// MissRate returns the fraction of lookups that missed.
func (b *BTB) MissRate() float64 {
	if b.lookups == 0 {
		return 0
	}
	return float64(b.misses) / float64(b.lookups)
}
