// Package core implements the simulated out-of-order processor: a
// cycle-level structural model of the paper's baseline core (Table II) —
// fetch through commit, with wrong-path execution, a TAGE front-end, and a
// full memory hierarchy behind the load/store unit — plus every evaluated
// mechanism: Weaver-style Flushing, traditional runahead (TR), Precise
// Runahead Execution (PRE), and the paper's Reliability-Aware Runahead
// (RAR) with its flush-at-exit and early-start optimisations.
//
// ACE-bit accounting (package ace) is woven through the pipeline: every
// structure entry tentatively accumulates a vulnerability window per the
// paper's Figure 2 and the window is reported to the ledger only if the
// instruction commits. Squashes of any kind — wrong-path repair, runahead
// exit flush, Flushing — discard the windows, making that state un-ACE.
package core

import (
	"rarsim/internal/branch"
	"rarsim/internal/isa"
)

// uopState tracks a micro-op's progress through the back-end.
type uopState uint8

const (
	uopDispatched uopState = iota // in IQ (or waiting), not yet issued
	uopIssued                     // executing on an FU / memory access in flight
	uopCompleted                  // result produced, awaiting commit
	uopDead                       // squashed; awaiting lazy removal
)

// uop is one in-flight micro-op. The same record flows through normal and
// runahead mode; runahead uops simply have no ROB entry.
type uop struct {
	inst isa.Inst
	seq  uint64 // global age

	state    uopState
	runahead bool // dispatched during runahead mode
	inv      bool // poisoned: depends on the blocking load's unavailable value

	// Register renaming.
	src      [2]int16 // physical sources (-1 = none/ready immediate)
	dest     int16    // physical destination (-1 = none)
	prevDest int16    // previous mapping of the architectural dest, for rollback
	// notReady counts source registers still awaiting their producer.
	// Maintained event-driven (Core.markReady decrements it when a producer
	// publishes) so the issue stage tests one field instead of re-polling
	// the register file for every queued uop every cycle.
	notReady int8

	// Position bookkeeping.
	streamIdx uint64 // index into the correct-path stream (for rewind)
	robIdx    int    // slot in the ROB ring; -1 for runahead uops
	inLQ      bool
	inSQ      bool

	// Timing.
	frontReadyAt uint64 //rarlint:unit cycles -- the cycle the uop clears the front-end pipe
	dispatchedAt uint64 //rarlint:unit cycles
	issuedAt     uint64 //rarlint:unit cycles
	doneAt       uint64 //rarlint:unit cycles
	retryAt      uint64 //rarlint:unit cycles -- earliest re-issue attempt after an MSHR stall
	fuLatency    uint64 //rarlint:unit cycles

	// Memory.
	llcMiss   bool // the access missed the LLC
	longLat   bool // LLC miss or a long wait on an in-flight fill
	memIssued bool

	// Branch prediction state. bpSnap indexes the core's snapshot arena
	// (-1 = none): only mispredicted branches carry a history snapshot,
	// and keeping the ~200-byte Snapshot out of line shrinks every uop by
	// ~40% — the pool, the ROB ring and every stage walk touch that much
	// less cache.
	predTaken bool
	bpSnap    int32

	// ACE attribution snapshots (cumulative blocked-cycle counters at
	// window-start events; see ace.Ledger).
	hbAtDispatch, fsAtDispatch uint64
	hbAtIssue, fsAtIssue       uint64
	hbAtDone, fsAtDone         uint64
	issueValid                 bool

	// inj holds indices of fault-injection samples tagged onto this uop
	// (see inject.go); resolved at commit or squash.
	inj []int32

	// bpInfo sits last deliberately: at ~90 bytes it is the fattest field,
	// and only branch uops (a minority) ever touch it — every field the
	// non-branch stage walks read now fits in the first four cache lines
	// instead of straddling the Info blob.
	bpInfo branch.Info
}

func (u *uop) isLoad() bool   { return u.inst.IsLoad() }
func (u *uop) isStore() bool  { return u.inst.IsStore() }
func (u *uop) isBranch() bool { return u.inst.IsBranch() }

// uopPool recycles uop records to keep allocation off the hot path.
type uopPool struct {
	free []*uop
	// all lists every record the pool has allocated, so that reclaim can
	// recover the records still in flight when a run ends.
	all []*uop
}

func (p *uopPool) get() *uop {
	if n := len(p.free); n > 0 {
		u := p.free[n-1]
		p.free = p.free[:n-1]
		u.reset()
		return u
	}
	//rarlint:allow hotalloc pool warm-up only; steady state recycles from free
	u := &uop{}
	p.all = append(p.all, u)
	return u
}

// reclaim returns the pool for a core built into this one's storage
// after its run: once the run is over no record is in flight any more,
// so every record allocated so far starts on the free list.
func (p *uopPool) reclaim() uopPool {
	return uopPool{free: append(p.free[:0], p.all...), all: p.all}
}

// reset clears a recycled uop field by field instead of `*u = uop{}`: the
// full duffzero was a measurable slice of fetch. Two fields may keep
// stale contents because every reader writes them first in the same
// incarnation:
//
//   - inst: assigned at every fetch site before the uop is enqueued;
//   - bpInfo: written by fetch's Predict for every on-path branch, and
//     only ever read for on-path branches (commit-time Update) —
//     wrong-path uops never reach it.
//
// predTaken is NOT exempt: completeUop compares it against the actual
// outcome for every on-path branch, so it must not leak from a previous
// incarnation even transiently. bpSnap (the snapshot-arena index) is
// reset by release when the slot is returned, and newUop re-arms it to
// -1 for the never-pooled path. inj keeps its backing array (length 0 —
// release drains it) so tagged uops stop reallocating.
func (u *uop) reset() {
	u.seq = 0
	u.state = uopDispatched
	u.runahead, u.inv = false, false
	u.src = [2]int16{}
	u.dest, u.prevDest = 0, 0
	u.notReady = 0
	u.streamIdx = 0
	u.robIdx = 0
	u.inLQ, u.inSQ = false, false
	u.frontReadyAt, u.dispatchedAt, u.issuedAt = 0, 0, 0
	u.doneAt, u.retryAt, u.fuLatency = 0, 0, 0
	u.llcMiss, u.longLat, u.memIssued = false, false, false
	u.predTaken = false
	u.hbAtDispatch, u.fsAtDispatch = 0, 0
	u.hbAtIssue, u.fsAtIssue = 0, 0
	u.hbAtDone, u.fsAtDone = 0, 0
	u.issueValid = false
	u.inj = u.inj[:0]
}

func (p *uopPool) put(u *uop) {
	if len(p.free) < 4096 {
		p.free = append(p.free, u)
	}
}
