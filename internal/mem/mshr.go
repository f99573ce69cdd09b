package mem

import "math"

// MSHRs model the miss-status holding registers of a cache level: a small
// file of outstanding line misses. A second miss to an in-flight line
// merges with the existing entry; a miss that needs a new entry when the
// file is full must be retried later by the requester (the core replays
// the load).
type MSHRs struct {
	entries []mshrEntry
	size    int
	// live counts the valid entries and minFill is the earliest fillAt
	// among them (math.MaxUint64 when none is valid). Until the clock
	// reaches minFill no fill has landed, so reap has nothing to retire
	// and every valid entry is outstanding: both answer without a scan.
	live    int
	minFill uint64

	allocs uint64
	merges uint64
	full   uint64
	peak   int
}

type mshrEntry struct {
	line   uint64
	fillAt uint64
	valid  bool
}

// NewMSHRs builds a file with the given number of registers.
func NewMSHRs(size int) *MSHRs {
	return &MSHRs{entries: make([]mshrEntry, size), size: size, minFill: math.MaxUint64}
}

// reap retires entries whose fill has completed by cycle now.
func (m *MSHRs) reap(now uint64) {
	if now < m.minFill {
		return
	}
	live, minFill := 0, uint64(math.MaxUint64)
	for i := range m.entries {
		e := &m.entries[i]
		if !e.valid {
			continue
		}
		if e.fillAt <= now {
			e.valid = false
			continue
		}
		live++
		minFill = min(minFill, e.fillAt)
	}
	m.live, m.minFill = live, minFill
}

// Lookup reports whether the line holding addr is already outstanding and,
// if so, when its fill completes.
func (m *MSHRs) Lookup(addr, now uint64) (fillAt uint64, merged bool) {
	m.reap(now)
	if m.live == 0 {
		return 0, false
	}
	line := LineAddr(addr)
	for i := range m.entries {
		if m.entries[i].valid && m.entries[i].line == line {
			m.merges++
			return m.entries[i].fillAt, true
		}
	}
	return 0, false
}

// Allocate reserves a register for the line holding addr, filling at cycle
// fillAt. It reports false when the file is full (the access must retry).
func (m *MSHRs) Allocate(addr, now, fillAt uint64) bool {
	m.reap(now)
	line := LineAddr(addr)
	for i := range m.entries {
		if !m.entries[i].valid {
			m.entries[i] = mshrEntry{line: line, fillAt: fillAt, valid: true}
			m.live++
			m.minFill = min(m.minFill, fillAt)
			m.allocs++
			if n := m.Outstanding(now); n > m.peak {
				m.peak = n
			}
			return true
		}
	}
	m.full++
	return false
}

// Outstanding returns the number of in-flight misses at cycle now.
//
//rarlint:pure
func (m *MSHRs) Outstanding(now uint64) int {
	if now < m.minFill {
		return m.live
	}
	n := 0
	for i := range m.entries {
		if m.entries[i].valid && m.entries[i].fillAt > now {
			n++
		}
	}
	return n
}

// Size returns the register count.
//
//rarlint:pure
func (m *MSHRs) Size() int { return m.size }

// FullStalls returns how many allocations failed because the file was full.
//
//rarlint:pure
func (m *MSHRs) FullStalls() uint64 { return m.full }

// Merges returns how many misses merged with an in-flight entry.
//
//rarlint:pure
func (m *MSHRs) Merges() uint64 { return m.merges }

// Peak returns the peak simultaneous occupancy observed.
//
//rarlint:pure
func (m *MSHRs) Peak() int { return m.peak }
