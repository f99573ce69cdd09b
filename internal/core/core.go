package core

import (
	"fmt"
	"math"

	"rarsim/internal/ace"
	"rarsim/internal/branch"
	"rarsim/internal/config"
	"rarsim/internal/isa"
	"rarsim/internal/mem"
	"rarsim/internal/reuse"
	"rarsim/internal/trace"
)

// mode is the core's execution mode.
type mode uint8

const (
	modeNormal mode = iota
	modeRunahead
)

// fuPool indices.
const (
	fuIntAdd = iota
	fuIntMult
	fuIntDiv
	fuFpAdd
	fuFpMult
	fuFpDiv
	numFuPools
)

// Core is one simulated out-of-order processor running one workload under
// one scheme. Create with New, run with Run. A Core runs one simulation;
// afterwards its owner may hand it to New as old to build the next one.
type Core struct {
	cfg    config.Core
	scheme config.Scheme
	bits   ace.Bits

	gen trace.Source
	// genBlk is gen's batch face when it has one (trace.BlockSource);
	// nil forces the scalar per-instruction path (A/B equivalence runs
	// wrap the source in trace.ScalarOnly to get exactly that).
	genBlk trace.BlockSource
	stream *streamBuf
	bp     *branch.Predictor
	btb    *branch.BTB
	hier   *mem.Hierarchy
	ledger *ace.Ledger
	regs   *regFile
	pool   uopPool

	cycle uint64 //rarlint:unit cycles
	seq   uint64

	// Front-end.
	frontQ          frontRing
	fetchStallUntil uint64 //rarlint:unit cycles
	wrongPath       bool
	wpPC            uint64
	// wpScratch receives one fetch group's batch of synthesised
	// wrong-path instructions (fetchWrongPathGroup); sized Width.
	wpScratch []isa.Inst
	// wpSynthetic counts synthesised wrong-path instructions still to
	// fetch: >0 for a bounded hammock body, -1 for a non-reconvergent
	// path, 0 while off-path means fetch reconverged onto the stream.
	wpSynthetic int

	// Back-end.
	rob      []*uop
	robHead  int
	robCount int
	// iq is the issue queue in dispatch (seq) order. Issued entries are
	// left behind as seq-guarded tombstones rather than compacted out
	// every cycle — an issued uop can commit and be pool-recycled while
	// its slot lingers, and uopDispatched is the uop zero state, so only
	// the seq guard distinguishes a waiting entry from a stale one.
	// iqLive counts the live waiting entries (the architectural IQ
	// occupancy — capacity checks use it) and iqTomb the tombstones.
	// compactIQ restores the fully compacted layout — exactly the slice a
	// per-cycle-compacting implementation maintains — before any observer
	// (audit, fault injection) looks at slot positions.
	iq     []waiter
	iqLive int
	iqTomb int
	// readyList holds the issue candidates in seq order: every live
	// dispatched uop whose notReady filter has hit zero. Entries are
	// seq-guarded like waiter registrations — issued, squashed or recycled
	// uops go stale and are dropped lazily as issueStage walks the list —
	// so issueStage and the next-event probe scan a handful of candidates
	// instead of the whole queue.
	//rarlint:survives seq-guarded: entries registered in runahead are inert after the squash recycles their uops
	readyList []waiter
	lqCount   int
	sqList    []*uop // in-flight stores, age order, for forwarding
	// Completion wheel: in-flight executions bucketed by completion cycle
	// (a calendar queue), so completeStage touches exactly the uops due
	// this cycle instead of scanning and compacting the whole in-flight
	// set every cycle. Bucket i at cycle t holds entries due at the unique
	// cycle ≡ i (mod cwSize) within (t, t+cwSize]; completions further out
	// (DRAM fills) wait in cwOverflow and migrate into buckets when the
	// clock comes within a window of them. Entries are seq-guarded like
	// waiter registrations — squashed or recycled uops go stale in place
	// and are dropped when their bucket drains, which is why none of this
	// needs rewinding at a flush or runahead exit.
	cwBuckets  [cwSize][]waiter
	cwOverflow []cwEntry
	// cwBacking is the buckets' shared preallocated backing array, kept
	// so that a recycled core can carve it up again.
	cwBacking []waiter
	// cwOvMin is the earliest doneAt in cwOverflow (math.MaxUint64 when
	// empty); it may go stale-low via squashed entries, which costs a
	// redundant migration scan, never a missed completion.
	cwOvMin uint64 //rarlint:unit cycles
	// cwCount is the number of wheel entries, live or stale; zero means
	// completeStage has nothing to do at all.
	cwCount int

	// waiters holds, per physical register, the issue-queue uops waiting
	// for it to become ready (see backend.go: enqueueIQ/markReady). Each
	// entry is seq-guarded: uop records are pooled, so an entry only acts
	// on the incarnation that registered it.
	//rarlint:survives seq-guarded: entries registered in runahead are inert after the squash recycles their uops
	waiters [][]waiter
	// waiterBacking is the waiter lists' shared preallocated backing
	// array, kept so that a recycled core can carve it up again.
	waiterBacking []waiter

	// bpSnapArena backs the history snapshots of in-flight mispredicted
	// branches, indexed by uop.bpSnap. Only mispredicts allocate a slot
	// (a handful live at once), so the ~200-byte Snapshot stays out of
	// the uop record. Slots recycle through bpSnapFree when the owning
	// uop is released; a freed slot's content is dead, so neither list
	// needs restoring at runahead exit.
	bpSnapArena []branch.Snapshot
	bpSnapFree  []int32

	// doneScratch is completeStage's reusable completion buffer.
	doneScratch []*uop
	// squashScratch is the squash paths' reusable victim buffer: squashes
	// happen on every mispredict, far too often to allocate a fresh slice.
	squashScratch []*uop

	fuPools    [numFuPools]config.FUPool
	fuIssued   [numFuPools]int    // pipelined pools: ops issued this cycle
	fuBusyTill [numFuPools]uint64 //rarlint:unit cycles -- unpipelined pools: next free cycle

	storeBuf []uint64 // post-commit store addresses awaiting L1D write

	// ROB-head blocking tracking.
	headSeq   uint64
	headSince uint64 //rarlint:unit cycles

	// Runahead machinery.
	mode       mode
	blocking   *uop // the load that triggered runahead
	prdq       []*uop
	sstT       *sst
	prod       *producers
	lastWriter [isa.NumRegs]uint64
	raDiverged bool
	chk        checkpoint

	// SST training dedup: last PC trained, to avoid rewalking hot loads.
	lastTrainedPC uint64

	// lastFlushSeq prevents the FLUSH scheme from re-flushing for the
	// same blocking load every cycle.
	lastFlushSeq uint64

	// commitBarrier caps commits so the run stops exactly at the warmup
	// boundary and at the requested instruction count (commit is up to
	// Width wide per cycle).
	commitBarrier uint64

	// Fault-injection campaign state (inject.go).
	injSamples []InjectSample
	injNext    int

	// auditEvery enables the invariant checker (audit.go) every N cycles.
	auditEvery uint64

	// draining disables fetch while the pipeline empties between
	// detailed samples (sample.go).
	draining bool

	// ffInstructions counts instructions skipped functionally.
	ffInstructions uint64

	// watchdog is the no-commit deadline in cycles (see watchdogWindow).
	watchdog uint64 //rarlint:unit cycles

	s Stats
}

// checkpoint is the state saved at runahead (or flush) entry. Exit
// *consumes* the checkpoint (restoreRAT, bp.Restore, stream.rewind read
// from it) rather than clearing it; the stale copy left behind is
// architecturally dead until the next enterRunahead overwrites it.
type checkpoint struct {
	rat    [isa.NumRegs]int16 //rarlint:survives consumed at exit, overwritten by the next entry
	bpSnap branch.Snapshot    //rarlint:survives consumed at exit, overwritten by the next entry
	//rarlint:survives consumed at exit, overwritten by the next entry
	resumeCursor uint64 // fetch cursor to restore on a PRE-style exit
	wrongPath    bool   //rarlint:survives consumed at exit, overwritten by the next entry
	wpPC         uint64 //rarlint:survives consumed at exit, overwritten by the next entry
	wpSynthetic  int    //rarlint:survives consumed at exit, overwritten by the next entry
}

// Stats is the result of one simulation run.
type Stats struct {
	Benchmark string
	Scheme    string
	CoreName  string

	Cycles    uint64 //rarlint:unit cycles
	Committed uint64 //rarlint:unit insts

	CommittedLoads    uint64 //rarlint:unit insts
	CommittedStores   uint64 //rarlint:unit insts
	CommittedBranches uint64 //rarlint:unit insts
	Mispredicts       uint64 //rarlint:unit insts
	WrongPathFetched  uint64

	RunaheadEntries  uint64 //rarlint:survives statistics counter: runahead activity is metered, not squashed
	RunaheadCycles   uint64 //rarlint:unit cycles
	RunaheadExecuted uint64 //rarlint:unit uops -- executed in runahead mode
	//rarlint:survives statistics counter: runahead activity is metered, not squashed
	RunaheadDropped uint64 //rarlint:unit uops -- filtered or INV-dropped in runahead
	Flushes         uint64 // FLUSH-scheme pipeline flushes

	// Activity counters for energy accounting: everything that consumed
	// pipeline bandwidth, including wrong-path, runahead and re-fetched
	// work that never (or repeatedly) committed.
	TotalFetched uint64 //rarlint:unit uops
	//rarlint:survives statistics counter: energy accounting meters runahead dispatches by design
	TotalDispatched uint64 //rarlint:unit uops
	TotalIssued     uint64 //rarlint:unit uops

	HeadBlockedCycles uint64 //rarlint:unit cycles
	FullStallCycles   uint64 //rarlint:unit cycles

	// CommitHash is an FNV-1a hash over the committed instruction
	// sequence (PC and class, in commit order) for the whole run,
	// including warmup. Every scheme must commit the identical dynamic
	// stream — speculation of any kind never changes architectural
	// execution — so the hash must agree across schemes for the same
	// (benchmark, seed, instruction count).
	CommitHash uint64

	ABC            [ace.NumStructures]uint64 //rarlint:unit bitcycles
	TotalABC       uint64                    //rarlint:unit bitcycles
	HeadBlockedABC uint64                    //rarlint:unit bitcycles
	FullStallABC   uint64                    //rarlint:unit bitcycles
	TotalBits      uint64                    //rarlint:unit bits

	Mem mem.Stats
}

// IPC returns committed instructions per cycle.
//
//rarlint:pure
//rarlint:unit insts/cycles
func (s Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Committed) / float64(s.Cycles)
}

// MPKI returns demand-load LLC misses per thousand committed instructions.
//
//rarlint:pure
//rarlint:unit uops/insts
func (s Stats) MPKI() float64 {
	if s.Committed == 0 {
		return 0
	}
	return 1000 * float64(s.Mem.DemandLLCMisses) / float64(s.Committed)
}

// AVF returns the run's architectural vulnerability factor (Equation 2).
//
//rarlint:pure
//rarlint:unit 1
func (s Stats) AVF() float64 {
	return ace.AVF(s.TotalABC, s.TotalBits, s.Cycles)
}

// MispredictRate returns mispredictions per committed branch.
//
//rarlint:pure
//rarlint:unit 1
func (s Stats) MispredictRate() float64 {
	if s.CommittedBranches == 0 {
		return 0
	}
	return float64(s.Mispredicts) / float64(s.CommittedBranches)
}

// New builds a core for the given configuration, scheme and synthetic
// workload. old is nil for a fresh core, or a finished core built by New
// whose storage the new one takes over (see NewWithHierarchy), its memory
// hierarchy included.
func New(old *Core, cfg config.Core, scheme config.Scheme, bench trace.Benchmark, seed uint64) *Core {
	var h *mem.Hierarchy
	if old != nil {
		h = old.hier
	}
	return NewWithHierarchy(old, cfg, scheme, bench.Name, trace.New(bench, seed), mem.ReuseHierarchy(h, cfg.Mem))
}

// NewFromSource builds a core running an arbitrary instruction source —
// a recorded trace file, or any other Source implementation.
func NewFromSource(cfg config.Core, scheme config.Scheme, name string, gen trace.Source) *Core {
	return NewWithHierarchy(nil, cfg, scheme, name, gen, mem.NewHierarchy(cfg.Mem))
}

// NewWithHierarchy builds a core on an existing memory hierarchy — the
// multicore driver passes per-core hierarchies that share an LLC and DRAM
// (mem.NewHierarchyWithShared).
//
// old is nil for a fresh core. Otherwise it is a core whose run has
// finished and that its owner hands over for good: the new core is built
// into it and keeps its arrays — completion wheel, waiter lists, ROB,
// front-end ring, stream buffer, predictor and BTB tables, SST and
// producer table, uop records — re-zeroed in place, or reallocated where
// cfg needs them larger. Every field is reset first, so a recycled core
// simulates exactly as a fresh one (TestRecycledCoreMatchesFresh); only
// the garbage differs. h is taken as given either way.
func NewWithHierarchy(old *Core, cfg config.Core, scheme config.Scheme, name string, gen trace.Source, h *mem.Hierarchy) *Core {
	c := old
	if c == nil {
		c = new(Core)
	}
	prev := *c
	nRegs := cfg.IntRegs + cfg.FpRegs
	*c = Core{
		cfg:     cfg,
		scheme:  scheme,
		bits:    ace.DefaultBits(),
		gen:     gen,
		stream:  newStreamBuf(prev.stream, gen),
		bp:      branch.ReusePredictor(prev.bp),
		btb:     branch.ReuseBTB(prev.btb, 12),
		hier:    h,
		ledger:  ace.NewLedger(),
		regs:    newRegFile(prev.regs, cfg.IntRegs, cfg.FpRegs),
		pool:    prev.pool.reclaim(),
		rob:     reuse.Zeroed(prev.rob, cfg.ROB),
		waiters: reuse.Zeroed(prev.waiters, nRegs),
		sstT:    newSST(prev.sstT, cfg.SST),
		prod:    newProducers(prev.prod, 12),
		// Queues and scratch buffers restart empty on their old backing
		// arrays; nothing reads past their length.
		iq:            prev.iq[:0],
		readyList:     prev.readyList[:0],
		sqList:        prev.sqList[:0],
		prdq:          prev.prdq[:0],
		storeBuf:      prev.storeBuf[:0],
		bpSnapArena:   prev.bpSnapArena[:0],
		bpSnapFree:    prev.bpSnapFree[:0],
		doneScratch:   prev.doneScratch[:0],
		squashScratch: prev.squashScratch[:0],
		cwOverflow:    reuse.Zeroed(prev.cwOverflow, cfg.ROB)[:0],
		wpScratch:     reuse.Zeroed(prev.wpScratch, cfg.Width),
		// Pre-size the completion-wheel buckets out of one contiguous
		// backing array. Unlike a single flat list, 256 independent
		// slices each chase their own high-water mark — without
		// preallocation, rare (bucket, depth) combinations keep
		// allocating far into steady state.
		cwBacking: reuse.Zeroed(prev.cwBacking, cwSize*cwBucketCap),
		// Pre-size every per-register waiter list out of one contiguous
		// backing array, so the lists stop allocating on the hot path as
		// rare combinations set new high-water marks. The per-register
		// capacity is deliberately small: sizing every list for the 2*IQ
		// worst case put registers ~3KB apart — a megabyte of backing
		// whose appends missed cache on nearly every registration.
		// waiterCap entries cover the common case with the whole backing
		// L2-resident; the rare register that collects more waiters grows
		// its own slice once and keeps it for the rest of the run.
		waiterBacking: reuse.Zeroed(prev.waiterBacking, nRegs*waiterCap),
	}
	if b, ok := gen.(trace.BlockSource); ok {
		c.genBlk = b
	}
	c.cwOvMin = math.MaxUint64
	c.watchdog = watchdogWindow + DRAMStallAllowance(cfg)
	for i := range c.cwBuckets {
		c.cwBuckets[i] = c.cwBacking[i*cwBucketCap : i*cwBucketCap : (i+1)*cwBucketCap]
	}
	for i := range c.waiters {
		c.waiters[i] = c.waiterBacking[i*waiterCap : i*waiterCap : (i+1)*waiterCap]
	}
	// Fetch checks the soft cap before a group and then pushes up to one
	// full group, so frontQCap()+Width bounds occupancy.
	c.frontQ = newFrontRing(prev.frontQ.buf, c.frontQCap()+cfg.Width)
	c.fuPools[fuIntAdd] = cfg.IntAdd
	c.fuPools[fuIntMult] = cfg.IntMult
	c.fuPools[fuIntDiv] = cfg.IntDiv
	c.fuPools[fuFpAdd] = cfg.FpAdd
	c.fuPools[fuFpMult] = cfg.FpMult
	c.fuPools[fuFpDiv] = cfg.FpDiv

	c.s.Benchmark = name
	c.s.Scheme = scheme.Name
	c.s.CoreName = cfg.Name
	c.s.TotalBits = ace.TotalBits(c.bits, ace.Sizes{
		ROB: cfg.ROB, IQ: cfg.IQ, LQ: cfg.LQ, SQ: cfg.SQ,
		IntRegs: cfg.IntRegs, FpRegs: cfg.FpRegs,
		IntFUs: cfg.IntFUCount(), FpFUs: cfg.FpFUCount(),
	})
	return c
}

// waiterCap is each per-register waiter list's preallocated capacity.
const waiterCap = 16

// watchdogWindow is the commit-progress slack: a run that commits nothing
// for watchdogWindow cycles beyond the longest stall its DRAM timing can
// legitimately cause (DRAMStallAllowance) reports a deadlock. The core
// computes that deadline once, in New.
const watchdogWindow = 500_000

// DRAMStallAllowance returns the commit-free stall the DRAM timing of cfg
// can legitimately cause: four back-to-back slowest reads (controller
// overhead, row conflict, burst). The longest gap between two commits
// seen in practice is two such reads — an instruction-fetch miss, then
// the head load's own miss — so four leave a 2x margin. Under the default
// DDR3 timing the allowance is a few hundred cycles; a pathologically slow
// DRAM stretches the watchdog deadlines of Core and multicore.System
// instead of tripping them, while a genuine deadlock still trips them.
func DRAMStallAllowance(cfg config.Core) uint64 {
	d := cfg.Mem.DRAM
	return 4 * (d.Ctrl + d.TRP + d.TRCD + d.TCL + d.Burst)
}

// Run simulates until instructions have committed and returns the run's
// statistics. It returns an error if the pipeline deadlocks (a model bug,
// not an expected outcome).
//
//rarlint:hot
func (c *Core) Run(instructions uint64) (Stats, error) {
	return c.RunWarm(0, instructions)
}

// RunWarm simulates warmup+measured further committed instructions and
// returns statistics covering only the measured portion — the equivalent
// of the paper's warmed-up SimPoint measurement. Caches, predictors and
// the SST stay trained across the boundary; only the counters reset.
// Targets are relative to instructions already committed, so RunWarm can
// be called repeatedly (see RunSampled).
//
//rarlint:hot
func (c *Core) RunWarm(warmup, measured uint64) (Stats, error) {
	base := c.s.Committed
	warmTarget := base + warmup
	total := base + warmup + measured
	c.commitBarrier = total
	if warmup > 0 {
		c.commitBarrier = warmTarget
	}
	var warm Stats
	warmTaken := false
	if warmup == 0 {
		c.finalizeStats()
		warm = c.s
		warmTaken = true
	}
	lastCommit := base
	lastCommitCycle := c.cycle
	for c.s.Committed < total {
		c.cycle++
		c.ledger.SetCycle(c.cycle)
		if c.injNext < len(c.injSamples) {
			c.processInjections()
		}
		c.tickBlocked()
		c.completeStage()
		c.commitStage()
		c.modeStage()
		c.issueStage()
		c.dispatchStage()
		c.fetchStage()
		c.drainStores()

		if c.auditEvery > 0 && c.cycle%c.auditEvery == 0 {
			c.audit() //rarlint:allow hotalloc audits are opt-in debugging, off in production sweeps
		}
		if !warmTaken && c.s.Committed >= warmTarget {
			c.finalizeStats()
			warm = c.s
			warmTaken = true
			c.commitBarrier = total
		}
		if c.s.Committed != lastCommit {
			lastCommit = c.s.Committed
			lastCommitCycle = c.cycle
		} else if c.cycle-lastCommitCycle > c.watchdog {
			//rarlint:allow hotalloc fatal deadlock exit, never taken on a healthy run
			return c.s, fmt.Errorf(
				"core: deadlock: no commit for %d cycles at cycle %d (core=%s bench=%s scheme=%s rob=%d iq=%d frontQ=%d mode=%d)",
				c.watchdog, c.cycle, c.s.CoreName, c.s.Benchmark, c.s.Scheme,
				c.robCount, c.iqLive, c.frontQ.len(), c.mode)
		}
	}
	c.finalizeStats()
	return c.s.sub(warm), nil
}

// Step advances the core by exactly one cycle. Run/RunWarm drive it
// internally; multicore systems interleave Step calls across cores so
// shared-LLC and DRAM contention resolves in lockstep.
func (c *Core) Step() {
	c.cycle++
	c.ledger.SetCycle(c.cycle)
	if c.injNext < len(c.injSamples) {
		c.processInjections()
	}
	if c.auditEvery > 0 && c.cycle%c.auditEvery == 0 {
		c.audit()
	}
	c.tickBlocked()
	c.completeStage()
	c.commitStage()
	c.modeStage()
	c.issueStage()
	c.dispatchStage()
	if !c.draining {
		c.fetchStage()
	}
	c.drainStores()
}

// FFSkippedCycles returns 0: the simulator ticks every cycle. It remains
// only because the repository benchmark harness (_rarbench) still reports
// it as a metric.
func (c *Core) FFSkippedCycles() uint64 { return 0 }

// Committed returns the number of instructions committed so far.
func (c *Core) Committed() uint64 { return c.s.Committed }

// Snapshot finalises and returns the current statistics without ending
// the simulation.
func (c *Core) Snapshot() Stats {
	c.finalizeStats()
	return c.s
}

// SetCommitLimit caps further commits at n total committed instructions
// (0 = unlimited). Multicore drivers use it to stop finished cores.
func (c *Core) SetCommitLimit(n uint64) { c.commitBarrier = n }

// wholeRunStatsFields lists the numeric Stats fields that describe the
// whole run (or its static configuration) rather than accumulating
// cycle-by-cycle, and that sub therefore deliberately does NOT subtract:
//
//   - CommitHash: the architectural commit-stream fingerprint. A hash is
//     not a counter — "measured minus warmup" has no meaning for it, and
//     cross-scheme determinism checks want the whole-run value.
//   - TotalBits: the bit capacity of the tracked structures, fixed at
//     construction. Subtracting it would zero the AVF denominator.
//
// TestStatsSubCoversAllFields walks Stats by reflection and fails if any
// numeric field is neither subtracted by sub nor listed here — so adding a
// counter to Stats (or mem.Stats) without updating sub cannot silently
// leak warmup into measured results again.
var wholeRunStatsFields = map[string]bool{
	"CommitHash": true,
	"TotalBits":  true,
}

// sub returns the counter-wise difference s-w, for warmup exclusion.
// Fields in wholeRunStatsFields are deliberately not subtracted.
func (s Stats) sub(w Stats) Stats {
	out := s
	out.Cycles -= w.Cycles
	out.Committed -= w.Committed
	out.CommittedLoads -= w.CommittedLoads
	out.CommittedStores -= w.CommittedStores
	out.CommittedBranches -= w.CommittedBranches
	out.Mispredicts -= w.Mispredicts
	out.WrongPathFetched -= w.WrongPathFetched
	out.RunaheadEntries -= w.RunaheadEntries
	out.RunaheadCycles -= w.RunaheadCycles
	out.RunaheadExecuted -= w.RunaheadExecuted
	out.RunaheadDropped -= w.RunaheadDropped
	out.Flushes -= w.Flushes
	out.TotalFetched -= w.TotalFetched
	out.TotalDispatched -= w.TotalDispatched
	out.TotalIssued -= w.TotalIssued
	out.HeadBlockedCycles -= w.HeadBlockedCycles
	out.FullStallCycles -= w.FullStallCycles
	for i := range out.ABC {
		out.ABC[i] -= w.ABC[i]
	}
	out.TotalABC -= w.TotalABC
	out.HeadBlockedABC -= w.HeadBlockedABC
	out.FullStallABC -= w.FullStallABC
	out.Mem.DemandLoads -= w.Mem.DemandLoads
	out.Mem.DemandLLCMisses -= w.Mem.DemandLLCMisses
	out.Mem.LLCMissCycles -= w.Mem.LLCMissCycles
	out.Mem.LLCBusyCycles -= w.Mem.LLCBusyCycles
	out.Mem.DRAMReads -= w.Mem.DRAMReads
	out.Mem.DRAMWrites -= w.Mem.DRAMWrites
	out.Mem.PrefetchIssued -= w.Mem.PrefetchIssued
	out.Mem.MSHRFullStalls -= w.Mem.MSHRFullStalls
	return out
}

// tickBlocked advances the Figure 5 attribution counters and the ROB-head
// countdown timer state.
func (c *Core) tickBlocked() {
	head := c.robHeadUop()
	headBlocked := head != nil && head.isLoad() && head.state == uopIssued && head.longLat
	fullStall := headBlocked && c.robCount == c.cfg.ROB
	c.ledger.TickBlocked(headBlocked, fullStall)
	if headBlocked {
		c.s.HeadBlockedCycles++
	}
	if fullStall {
		c.s.FullStallCycles++
	}
	if c.mode == modeRunahead {
		c.s.RunaheadCycles++
	}

	if head == nil {
		c.headSeq, c.headSince = 0, c.cycle
		return
	}
	if head.seq != c.headSeq {
		c.headSeq = head.seq
		c.headSince = c.cycle
	}
}

//rarlint:pure
func (c *Core) robHeadUop() *uop {
	if c.robCount == 0 {
		return nil
	}
	return c.rob[c.robHead]
}

func (c *Core) robTailIdx() int {
	// Both operands are < ROB, so one conditional subtraction replaces the
	// integer division the compiler would emit for % (ROB is not a power
	// of two, and this runs for every dispatched uop).
	if t := c.robHead + c.robCount; t < c.cfg.ROB {
		return t
	} else {
		return t - c.cfg.ROB
	}
}

func (c *Core) finalizeStats() {
	c.s.Cycles = c.cycle
	c.s.ABC = c.ledger.ABC()
	c.s.TotalABC = c.ledger.TotalABC()
	c.s.HeadBlockedABC = c.ledger.HeadBlockedABC()
	c.s.FullStallABC = c.ledger.FullStallABC()
	c.s.Mem = c.hier.Snapshot()
}

// CycleCount returns the total cycles simulated so far (including any
// warmup portion excluded from Stats).
func (c *Core) CycleCount() uint64 { return c.cycle }

// EnableTimeline turns on windowed ACE accounting: the ledger buckets
// committed ACE bit-cycles into windowCycles-wide windows, for AVF
// phase-behaviour analysis. Call before Run; read with Timeline.
func (c *Core) EnableTimeline(windowCycles uint64) {
	c.ledger.EnableTimeline(windowCycles)
}

// Timeline returns the windowed ABC series (nil unless EnableTimeline was
// called).
func (c *Core) Timeline() []ace.Window { return c.ledger.Timeline() }

// Hierarchy exposes the memory system (tests and tools).
func (c *Core) Hierarchy() *mem.Hierarchy { return c.hier }

// Predictor exposes the branch predictor (tests and tools).
func (c *Core) Predictor() *branch.Predictor { return c.bp }
