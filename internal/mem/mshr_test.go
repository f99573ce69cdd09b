package mem

import "testing"

func TestMSHRAllocateAndMerge(t *testing.T) {
	m := NewMSHRs(4)
	if !m.Allocate(0x1000, 10, 300) {
		t.Fatal("allocation into empty file failed")
	}
	fill, merged := m.Lookup(0x1010, 20) // same line
	if !merged || fill != 300 {
		t.Errorf("merge = %d,%v", fill, merged)
	}
	if _, merged := m.Lookup(0x2000, 20); merged {
		t.Error("different line must not merge")
	}
	if m.Merges() != 1 {
		t.Errorf("merges = %d", m.Merges())
	}
}

func TestMSHRCapacity(t *testing.T) {
	m := NewMSHRs(2)
	if !m.Allocate(0x1000, 0, 100) || !m.Allocate(0x2000, 0, 100) {
		t.Fatal("allocations failed")
	}
	if m.Allocate(0x3000, 10, 100) {
		t.Error("third allocation must fail in a 2-entry file")
	}
	if m.FullStalls() != 1 {
		t.Errorf("full stalls = %d", m.FullStalls())
	}
	if m.Outstanding(10) != 2 {
		t.Errorf("outstanding = %d", m.Outstanding(10))
	}
}

func TestMSHRReap(t *testing.T) {
	m := NewMSHRs(2)
	m.Allocate(0x1000, 0, 50)
	m.Allocate(0x2000, 0, 60)
	// After the fills complete, the registers free up.
	if !m.Allocate(0x3000, 100, 300) {
		t.Error("completed fills must be reaped")
	}
	if _, merged := m.Lookup(0x1000, 100); merged {
		t.Error("completed fill must not merge")
	}
	if m.Outstanding(100) != 1 {
		t.Errorf("outstanding after reap = %d", m.Outstanding(100))
	}
}

func TestMSHRPeak(t *testing.T) {
	m := NewMSHRs(8)
	for i := 0; i < 5; i++ {
		m.Allocate(uint64(i)<<12, 0, 1000)
	}
	if m.Peak() != 5 {
		t.Errorf("peak = %d", m.Peak())
	}
	if m.Size() != 8 {
		t.Errorf("size = %d", m.Size())
	}
}

// scanMSHRs is the reference model of MSHRs: no bookkeeping beyond the
// entries, so every query scans them all.
type scanMSHRs struct{ entries []mshrEntry }

func (m *scanMSHRs) reap(now uint64) {
	for i := range m.entries {
		if m.entries[i].valid && m.entries[i].fillAt <= now {
			m.entries[i].valid = false
		}
	}
}

func (m *scanMSHRs) lookup(addr, now uint64) (uint64, bool) {
	m.reap(now)
	for _, e := range m.entries {
		if e.valid && e.line == LineAddr(addr) {
			return e.fillAt, true
		}
	}
	return 0, false
}

func (m *scanMSHRs) allocate(addr, now, fillAt uint64) bool {
	m.reap(now)
	for i := range m.entries {
		if !m.entries[i].valid {
			m.entries[i] = mshrEntry{line: LineAddr(addr), fillAt: fillAt, valid: true}
			return true
		}
	}
	return false
}

func (m *scanMSHRs) outstanding(now uint64) int {
	n := 0
	for _, e := range m.entries {
		if e.valid && e.fillAt > now {
			n++
		}
	}
	return n
}

// TestMSHRTrackingMatchesScan drives the live-count/earliest-fill
// bookkeeping and the scan-everything reference through the same random
// access sequence, the way the hierarchy does (lookup, then occupancy,
// then allocate), and requires identical answers throughout.
func TestMSHRTrackingMatchesScan(t *testing.T) {
	const size = 6
	m := NewMSHRs(size)
	ref := &scanMSHRs{entries: make([]mshrEntry, size)}
	rnd := uint64(0x9E3779B97F4A7C15)
	next := func(n uint64) uint64 {
		rnd ^= rnd << 13
		rnd ^= rnd >> 7
		rnd ^= rnd << 17
		return rnd % n
	}
	var now uint64
	for step := 0; step < 20_000; step++ {
		now += next(4) // several accesses may share a cycle
		addr := next(16) << 6
		fill, merged := m.Lookup(addr, now)
		rfill, rmerged := ref.lookup(addr, now)
		if fill != rfill || merged != rmerged {
			t.Fatalf("step %d: Lookup = %d,%v, reference %d,%v", step, fill, merged, rfill, rmerged)
		}
		// Occupancy is also asked about earlier and later cycles than the
		// last reap, which the bookkeeping must answer exactly too.
		for _, at := range []uint64{now, now + next(200), now - min(now, next(3))} {
			if got, want := m.Outstanding(at), ref.outstanding(at); got != want {
				t.Fatalf("step %d: Outstanding(%d) = %d, reference %d", step, at, got, want)
			}
		}
		if merged {
			continue
		}
		fillAt := now + 1 + next(300)
		if got, want := m.Allocate(addr, now, fillAt), ref.allocate(addr, now, fillAt); got != want {
			t.Fatalf("step %d: Allocate = %v, reference %v", step, got, want)
		}
	}
}
