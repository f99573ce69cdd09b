package mem

// SharedLLC bundles the memory-system components that multiple cores
// share: the last-level cache, the DRAM behind it, and — when prefetching
// at the LLC — the stride prefetcher that trains on the combined access
// stream. Each core keeps private L1s, L2 and MSHRs.
//
// Multicore drivers step cores in lockstep (one cycle each, round-robin),
// so the shared components see interleaved accesses with consistent
// timestamps and model real contention: LLC capacity pressure from
// co-runners and DRAM bank/bus queueing across cores.
type SharedLLC struct {
	L3   *Cache
	DRAM *DRAM
	PF   *StridePrefetcher
}

// NewSharedLLC builds the shared components from cfg.
func NewSharedLLC(cfg Config) *SharedLLC { return reuseSharedLLC(nil, cfg) }

// reuseSharedLLC is NewSharedLLC with the LLC rebuilt into oldL3 (nil
// builds a fresh one).
func reuseSharedLLC(oldL3 *Cache, cfg Config) *SharedLLC {
	s := &SharedLLC{
		L3:   reuseCache(oldL3, "L3", cfg.L3Size, cfg.L3Ways, cfg.L3Lat),
		DRAM: NewDRAM(cfg.DRAM),
	}
	if cfg.Prefetch == PrefetchL3 {
		s.PF = NewStridePrefetcher(cfg.PrefetchDegree)
	}
	return s
}

// NewHierarchyWithShared builds a per-core hierarchy (private L1I/L1D/L2
// and MSHRs) on top of shared LLC components.
func NewHierarchyWithShared(cfg Config, shared *SharedLLC) *Hierarchy {
	return reuseHierarchy(nil, cfg, shared)
}

// reuseHierarchy is NewHierarchyWithShared rebuilt into old, a hierarchy
// whose run has finished: every field is reset and the private caches'
// tag arrays are reused. A nil old builds a fresh hierarchy.
func reuseHierarchy(old *Hierarchy, cfg Config, shared *SharedLLC) *Hierarchy {
	h := old
	if h == nil {
		h = new(Hierarchy)
	}
	*h = Hierarchy{
		cfg:   cfg,
		L1I:   reuseCache(h.L1I, "L1I", cfg.L1ISize, cfg.L1IWays, cfg.L1ILat),
		L1D:   reuseCache(h.L1D, "L1D", cfg.L1DSize, cfg.L1DWays, cfg.L1DLat),
		L2:    reuseCache(h.L2, "L2", cfg.L2Size, cfg.L2Ways, cfg.L2Lat),
		L3:    shared.L3,
		mshrs: NewMSHRs(cfg.MSHRs),
		dram:  shared.DRAM,
	}
	switch cfg.Prefetch {
	case PrefetchL3:
		h.pf = shared.PF
	case PrefetchAll:
		h.pf = NewStridePrefetcher(cfg.PrefetchDegree)
	}
	return h
}
