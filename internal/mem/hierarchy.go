package mem

// Kind classifies an access for statistics and policy. Wrong-path and
// runahead accesses are real traffic (they move lines and occupy MSHRs)
// but are accounted separately so that MPKI — defined over committed
// instructions — is not polluted by speculation.
type Kind uint8

const (
	// KindLoad is a correct-path demand load.
	KindLoad Kind = iota
	// KindStore is a committed store (write-allocate).
	KindStore
	// KindWrongPath is a load issued down a mispredicted path.
	KindWrongPath
	// KindRunahead is a load issued during runahead execution. Runahead
	// loads are the prefetch mechanism of runahead and count toward MLP.
	KindRunahead
	// KindIFetch is an instruction fetch.
	KindIFetch
)

// Result describes the outcome of a data access.
type Result struct {
	// DoneAt is the cycle the data is available to the core.
	DoneAt uint64 //rarlint:unit cycles
	// HitLevel is 1..3 for a cache hit at that level, 4 for DRAM.
	HitLevel int
	// LLCMiss reports whether the access missed the last-level cache and
	// went to memory.
	LLCMiss bool
	// MSHRStall reports that no MSHR was available: the access did not
	// happen and must be retried. All other fields are zero.
	MSHRStall bool
}

// Config describes the hierarchy geometry and timing.
type Config struct {
	L1ISize, L1IWays int
	L1ILat           uint64
	L1DSize, L1DWays int
	L1DLat           uint64
	L2Size, L2Ways   int
	L2Lat            uint64
	L3Size, L3Ways   int
	L3Lat            uint64
	MSHRs            int
	DRAM             DRAMConfig
	Prefetch         PrefetchMode
	PrefetchDegree   int
}

// DefaultConfig returns the Table II hierarchy: 32 KiB 4-way L1I (2 cyc),
// 32 KiB 8-way L1D (4 cyc, 20 MSHRs), 256 KiB 8-way L2 (8 cyc), 1 MiB
// 16-way shared L3 (30 cyc), DDR3-1600, no prefetcher.
func DefaultConfig() Config {
	return Config{
		L1ISize: 32 << 10, L1IWays: 4, L1ILat: 2,
		L1DSize: 32 << 10, L1DWays: 8, L1DLat: 4,
		L2Size: 256 << 10, L2Ways: 8, L2Lat: 8,
		L3Size: 1 << 20, L3Ways: 16, L3Lat: 30,
		MSHRs: 20,
		DRAM:  DefaultDRAMConfig(),
	}
}

// Stats is a snapshot of hierarchy counters.
type Stats struct {
	DemandLoads     uint64 //rarlint:unit uops
	DemandLLCMisses uint64 //rarlint:unit uops
	LLCMissCycles   uint64 //rarlint:unit cycles -- Σ per-miss latency over demand+runahead misses
	LLCBusyCycles   uint64 //rarlint:unit cycles -- cycles with ≥1 such miss outstanding
	DRAMReads       uint64
	DRAMWrites      uint64
	PrefetchIssued  uint64
	MSHRFullStalls  uint64
}

// MLP returns the average number of outstanding long-latency misses over
// the cycles at least one is outstanding — the paper's MLP metric
// (Fig. 8b).
//
//rarlint:pure
//rarlint:unit 1
func (s Stats) MLP() float64 {
	if s.LLCBusyCycles == 0 {
		return 0
	}
	return float64(s.LLCMissCycles) / float64(s.LLCBusyCycles)
}

// Hierarchy is the full simulated memory system for one core.
type Hierarchy struct {
	cfg Config

	L1I, L1D, L2, L3 *Cache
	mshrs            *MSHRs
	dram             *DRAM
	pf               *StridePrefetcher

	demandLoads     uint64
	demandLLCMisses uint64
	missCycles      uint64
	busyCycles      uint64
	coveredUntil    uint64
}

// NewHierarchy builds a single-core hierarchy from cfg (private LLC).
func NewHierarchy(cfg Config) *Hierarchy { return ReuseHierarchy(nil, cfg) }

// ReuseHierarchy is NewHierarchy rebuilt into old, a hierarchy whose run
// has finished. The result is indistinguishable from a fresh one: every
// counter and register is reset and the cache tag arrays are re-zeroed in
// place (reallocated only where cfg needs larger ones). old must have
// been built by NewHierarchy or ReuseHierarchy: a hierarchy on a shared
// LLC (NewHierarchyWithShared) would take its co-runners' LLC with it. A
// nil old builds a fresh hierarchy.
func ReuseHierarchy(old *Hierarchy, cfg Config) *Hierarchy {
	var l3 *Cache
	if old != nil {
		l3 = old.L3
	}
	return reuseHierarchy(old, cfg, reuseSharedLLC(l3, cfg))
}

// Config returns the hierarchy's configuration.
func (h *Hierarchy) Config() Config { return h.cfg }

// DRAM exposes the memory model, for stats.
func (h *Hierarchy) DRAM() *DRAM { return h.dram }

// MSHRs exposes the L1D miss file, for stats and occupancy queries.
func (h *Hierarchy) MSHRs() *MSHRs { return h.mshrs }

// Access performs a data access to addr at cycle now.
func (h *Hierarchy) Access(addr, now uint64, kind Kind) Result {
	isStore := kind == KindStore
	if kind == KindLoad {
		h.demandLoads++
	}

	if h.pf != nil && h.cfg.Prefetch == PrefetchAll {
		h.prefetch(h.pf.Train(addr, now), now, true)
	}

	// L1D.
	if avail, hit := h.L1D.Lookup(addr, now, isStore); hit {
		return Result{DoneAt: avail, HitLevel: 1}
	}

	// Merge with an outstanding miss, or claim an MSHR.
	if fill, merged := h.mshrs.Lookup(addr, now); merged {
		return Result{DoneAt: fill, HitLevel: 4}
	}
	if h.mshrs.Outstanding(now) >= h.mshrs.Size() {
		h.mshrs.full++
		return Result{MSHRStall: true}
	}

	res := h.fillFrom2(addr, now+h.cfg.L1DLat, kind)
	h.insert(h.L1D, h.L2, addr, res.DoneAt, now, isStore)
	h.mshrs.Allocate(addr, now, res.DoneAt)
	if res.LLCMiss {
		if kind == KindLoad {
			h.demandLLCMisses++
		}
		if kind == KindLoad || kind == KindRunahead {
			h.trackMLP(now, res.DoneAt)
		}
	}
	return res
}

// fillFrom2 resolves a miss below the L1D: probe L2, then L3, then DRAM.
// t is the cycle the request leaves the L1.
func (h *Hierarchy) fillFrom2(addr, t uint64, kind Kind) Result {
	if avail, hit := h.L2.Lookup(addr, t, false); hit {
		return Result{DoneAt: avail, HitLevel: 2}
	}
	t2 := t + h.cfg.L2Lat
	res := h.fillFrom3(addr, t2, kind)
	h.insert(h.L2, h.L3, addr, res.DoneAt, t2, false)
	return res
}

// fillFrom3 resolves a miss below the L2.
func (h *Hierarchy) fillFrom3(addr, t uint64, kind Kind) Result {
	if h.pf != nil && h.cfg.Prefetch == PrefetchL3 {
		h.prefetch(h.pf.Train(addr, t), t, false)
	}
	if avail, hit := h.L3.Lookup(addr, t, false); hit {
		return Result{DoneAt: avail, HitLevel: 3}
	}
	t3 := t + h.cfg.L3Lat
	done := h.dram.Access(addr, t3, false)
	victim, wb := h.L3.Insert(LineAddr(addr), done, t3, false)
	if wb {
		h.dram.Access(victim, t3, true)
	}
	return Result{DoneAt: done, HitLevel: 4, LLCMiss: true}
}

// insert installs a line into upper, spilling dirty victims into lower.
func (h *Hierarchy) insert(upper, lower *Cache, addr, readyAt, now uint64, dirty bool) {
	victim, wb := upper.Insert(LineAddr(addr), readyAt, now, dirty)
	if !wb {
		return
	}
	if lower != nil {
		// Write the victim back into the next level (install if the line
		// was evicted there in the meantime).
		if _, hit := lower.Lookup(victim, now, true); !hit {
			v2, wb2 := lower.Insert(victim, now, now, true)
			if wb2 {
				if lower == h.L3 {
					h.dram.Access(v2, now, true)
				} else {
					h.insert(h.L3, nil, v2, now, now, true)
				}
			}
		}
	} else {
		h.dram.Access(victim, now, true)
	}
}

// prefetch issues the prefetcher's requests. toL1 installs lines all the
// way up (the "+ALL" mode); otherwise lines land in the LLC only.
func (h *Hierarchy) prefetch(lines []uint64, now uint64, toL1 bool) {
	for _, la := range lines {
		if h.L3.Contains(la) {
			if toL1 && !h.L1D.Contains(la) {
				avail, _ := h.L3.Lookup(la, now, false)
				h.insert(h.L1D, h.L2, la, avail, now, false)
				h.insert(h.L2, h.L3, la, avail, now, false)
			}
			continue
		}
		done := h.dram.Access(la, now+h.cfg.L3Lat, false)
		victim, wb := h.L3.Insert(la, done, now, false)
		if wb {
			h.dram.Access(victim, now, true)
		}
		if toL1 {
			h.insert(h.L1D, h.L2, la, done, now, false)
			h.insert(h.L2, h.L3, la, done, now, false)
		}
	}
}

// FetchAccess performs an instruction fetch of the line holding pc and
// returns the cycle the bytes are available.
func (h *Hierarchy) FetchAccess(pc, now uint64) uint64 {
	if avail, hit := h.L1I.Lookup(pc, now, false); hit {
		return avail
	}
	res := h.fillFrom2(pc, now+h.cfg.L1ILat, KindIFetch)
	h.insert(h.L1I, h.L2, pc, res.DoneAt, now, false)
	return res.DoneAt
}

// trackMLP accumulates the outstanding-miss integral for the MLP metric.
// Miss start times arrive in non-decreasing order within a run, so the
// union of busy intervals can be maintained with a single cursor.
func (h *Hierarchy) trackMLP(start, done uint64) {
	h.missCycles += done - start
	if start >= h.coveredUntil {
		h.busyCycles += done - start
	} else if done > h.coveredUntil {
		h.busyCycles += done - h.coveredUntil
	}
	if done > h.coveredUntil {
		h.coveredUntil = done
	}
}

// Snapshot returns the current statistics.
func (h *Hierarchy) Snapshot() Stats {
	s := Stats{
		DemandLoads:     h.demandLoads,
		DemandLLCMisses: h.demandLLCMisses,
		LLCMissCycles:   h.missCycles,
		LLCBusyCycles:   h.busyCycles,
		DRAMReads:       h.dram.Reads(),
		DRAMWrites:      h.dram.Writes(),
		MSHRFullStalls:  h.mshrs.FullStalls(),
	}
	if h.pf != nil {
		s.PrefetchIssued = h.pf.Issued()
	}
	return s
}
