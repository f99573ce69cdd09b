package core

import (
	"fmt"
	"math"

	"rarsim/internal/ace"
	"rarsim/internal/isa"
	"rarsim/internal/mem"
)

// dispatchStage moves up to Width uops from the front-end pipe into the
// back-end. In normal mode this allocates ROB/IQ/LQ/SQ entries and renames;
// in runahead mode dispatch is handled by dispatchRunahead (no ROB).
func (c *Core) dispatchStage() {
	for n := 0; n < c.cfg.Width && c.frontQ.len() > 0; n++ {
		u := c.frontQ.at(0)
		if u.frontReadyAt > c.cycle {
			break
		}
		var ok bool
		if c.mode == modeNormal {
			ok = c.dispatchNormal(u)
		} else {
			ok = c.dispatchRunahead(u)
		}
		if !ok {
			break // structural stall: retry next cycle, in order
		}
		c.frontQ.popFront()
	}
}

// dispatchStalled reports whether u cannot dispatch in normal mode for a
// structural reason (ROB/IQ/LQ/SQ/registers full).
//
//rarlint:pure
func (c *Core) dispatchStalled(u *uop) bool {
	in := &u.inst
	return c.robCount == c.cfg.ROB ||
		(!in.IsNop() && c.iqLive >= c.cfg.IQ) ||
		(in.IsLoad() && c.lqCount >= c.cfg.LQ) ||
		(in.IsStore() && len(c.sqList) >= c.cfg.SQ) ||
		(in.HasDest() && !c.regs.canAlloc(in.Dest.IsFp()))
}

// dispatchNormal allocates back-end resources for u and renames it.
// Returns false on a structural stall (ROB/IQ/LQ/SQ/registers full).
func (c *Core) dispatchNormal(u *uop) bool {
	if c.dispatchStalled(u) {
		return false
	}
	in := &u.inst

	u.src[0] = c.regs.lookup(in.Src1)
	u.src[1] = c.regs.lookup(in.Src2)
	if in.HasDest() {
		u.dest, u.prevDest = c.regs.rename(in.Dest)
	}

	// Record dependence edges for SST slice extraction (correct path only).
	if !in.WrongPath {
		var s1, s2 uint64
		if in.Src1.Valid() {
			s1 = c.lastWriter[in.Src1]
		}
		if in.Src2.Valid() {
			s2 = c.lastWriter[in.Src2]
		}
		c.prod.record(in.PC, s1, s2)
		if in.HasDest() {
			c.lastWriter[in.Dest] = in.PC
		}
	}

	u.dispatchedAt = c.cycle
	u.hbAtDispatch, u.fsAtDispatch = c.ledger.Cum()
	c.s.TotalDispatched++
	u.robIdx = c.robTailIdx()
	c.rob[u.robIdx] = u
	c.robCount++

	if in.IsNop() {
		u.state = uopCompleted
		u.doneAt = c.cycle
		return true
	}
	if in.IsLoad() {
		c.lqCount++
		u.inLQ = true
	}
	if in.IsStore() {
		c.sqList = append(c.sqList, u)
		u.inSQ = true
	}
	c.enqueueIQ(u)
	return true
}

// poolOf maps an instruction class to its functional-unit pool. Loads,
// stores and branches use the integer-add pool (address generation /
// resolution).
//
//rarlint:pure
func poolOf(class isa.Class) int {
	switch class {
	case isa.IntMult:
		return fuIntMult
	case isa.IntDiv:
		return fuIntDiv
	case isa.FpAdd:
		return fuFpAdd
	case isa.FpMult:
		return fuFpMult
	case isa.FpDiv:
		return fuFpDiv
	default:
		return fuIntAdd
	}
}

// fuWidth returns the ACE bit width of the unit executing the class.
func (c *Core) fuWidth(class isa.Class) uint64 {
	if class.IsFp() {
		return uint64(c.bits.FpFU)
	}
	return uint64(c.bits.IntFU)
}

//rarlint:pure
func (c *Core) srcsReady(u *uop) bool {
	for _, p := range u.src {
		if p >= 0 && !c.regs.ready[p] {
			return false
		}
	}
	return true
}

// waiter is one issue-queue wakeup registration. The seq guard makes stale
// entries inert: uop records are pooled, so a squashed-and-recycled record
// reachable from an old registration carries a different seq and is skipped.
type waiter struct {
	u   *uop
	seq uint64
}

// enqueueIQ inserts u into the issue queue, registering its not-yet-ready
// sources for event-driven wakeup. u.notReady is a one-sided filter:
// notReady > 0 guarantees srcsReady is false, because a ready bit flips
// true only inside markReady, and the first markReady(p) after a
// registration on p decrements it. A registration survives even PRE's
// register recycling (drainPRDQ frees a dead producer's register and a
// later rename re-allocates it while the consumer still names it): the
// consumer then waits for the new producer, whose markReady performs the
// wake — exactly the poll-based semantics this filter replaces.
// notReady == 0 does NOT guarantee readiness: that same recycling can
// re-poison a source behind the filter's back (alloc clears the ready bit
// without touching registrations already woken), so issueStage confirms
// with srcsReady before issuing. The filter takes the srcsReady poll off
// the queue's blocked majority; the confirm only runs for issue candidates.
//
//rarlint:hot
func (c *Core) enqueueIQ(u *uop) {
	u.state = uopDispatched
	u.notReady = 0
	for _, p := range u.src {
		if p >= 0 && !c.regs.ready[p] {
			u.notReady++
			c.waiters[p] = append(c.waiters[p], waiter{u, u.seq})
		}
	}
	c.iq = append(c.iq, waiter{u, u.seq})
	c.iqLive++
	if u.notReady == 0 {
		c.pushReady(u)
	}
}

// markReady publishes physical register p as ready and wakes the uops
// registered as waiting on it. Registrations from squashed consumers are
// inert (the pooled uop record carries a newer seq); registrations from
// before a recycling of p are live and correct to wake (see enqueueIQ).
// A uop whose last unready source arrives becomes an issue candidate.
//
//rarlint:hot
func (c *Core) markReady(p int16) {
	c.regs.ready[p] = true
	ws := c.waiters[p]
	for _, w := range ws {
		if w.u.seq == w.seq && w.u.notReady > 0 {
			w.u.notReady--
			if w.u.notReady == 0 {
				c.pushReady(w.u)
			}
		}
	}
	c.waiters[p] = ws[:0]
}

// pushReady inserts u into the ready list, keeping it sorted by seq so
// issue stays oldest-first. notReady never rises again once it reaches
// zero, so each uop incarnation is pushed exactly once — at enqueue when
// all sources are already ready, or at its final wakeup. Pushes are
// near-sorted already (wakeups follow dispatch order closely), so the
// insertion scan is almost always a plain append.
//
//rarlint:hot
func (c *Core) pushReady(u *uop) {
	i := len(c.readyList)
	c.readyList = append(c.readyList, waiter{})
	for i > 0 && c.readyList[i-1].seq > u.seq {
		c.readyList[i] = c.readyList[i-1]
		i--
	}
	c.readyList[i] = waiter{u, u.seq}
}

// iqCompactThreshold is the tombstone count at which issueStage compacts
// the issue queue (see compactIQ).
const iqCompactThreshold = 32

// compactIQ drops every entry that is no longer a waiting dispatched uop —
// issued tombstones and squashed leftovers — restoring the dense dispatch-
// order layout the per-cycle-compacting implementation maintained. Audit
// and fault injection index IQ slots positionally, so both force a
// compaction before looking; the hot path compacts only when tombstones
// have piled up.
//
//rarlint:hot
func (c *Core) compactIQ() {
	if c.iqTomb == 0 {
		return
	}
	c.rebuildIQ()
}

// rebuildIQ unconditionally compacts the issue queue down to its live
// waiting entries (seq guard intact and still dispatched) and recounts.
func (c *Core) rebuildIQ() {
	kept := c.iq[:0]
	for _, w := range c.iq {
		if w.u.seq == w.seq && w.u.state == uopDispatched {
			kept = append(kept, w)
		}
	}
	for i := len(kept); i < len(c.iq); i++ {
		c.iq[i] = waiter{}
	}
	c.iq = kept
	c.iqLive = len(kept)
	c.iqTomb = 0
}

// issueStage selects up to Width ready uops, oldest first, and starts them
// on functional units; loads and stores additionally access memory. Only
// the ready list is scanned — the blocked majority of the issue queue
// (notReady > 0) is never touched; it wakes event-driven via markReady.
//
//rarlint:hot
func (c *Core) issueStage() {
	for i := range c.fuIssued {
		c.fuIssued[i] = 0
	}
	issued := 0
	kept := c.readyList[:0]
	for _, w := range c.readyList {
		u := w.u
		if u.seq != w.seq || u.state != uopDispatched {
			continue // stale: issued earlier, squashed, or recycled
		}
		if issued >= c.cfg.Width || u.retryAt > c.cycle ||
			!c.srcsReady(u) || !c.tryIssue(u) {
			kept = append(kept, w)
			continue
		}
		issued++
		// The issued uop stays in c.iq as a tombstone until compaction.
		c.iqTomb++
		c.iqLive--
	}
	c.readyList = kept
	if c.iqTomb >= iqCompactThreshold {
		c.compactIQ()
	}
}

// tryIssue attempts to start u this cycle. It returns false when no unit
// is free or the L1D is out of MSHRs.
func (c *Core) tryIssue(u *uop) bool {
	pool := poolOf(u.inst.Class)
	fu := &c.fuPools[pool]
	if fu.Pipelined {
		if c.fuIssued[pool] >= fu.Count {
			return false
		}
	} else if c.fuBusyTill[pool] > c.cycle {
		return false
	}

	switch {
	case u.isLoad():
		if fwd, ok := c.forwardFromStore(u); ok {
			u.doneAt = fwd
		} else {
			kind := mem.KindLoad
			switch {
			case u.inst.WrongPath:
				kind = mem.KindWrongPath
			case u.runahead:
				kind = mem.KindRunahead
			}
			res := c.hier.Access(u.inst.Addr, c.cycle+1, kind)
			if res.MSHRStall {
				u.retryAt = c.cycle + 4
				return false
			}
			u.doneAt = res.DoneAt
			u.llcMiss = res.LLCMiss
			// A load merging with an in-flight fill waits nearly as long
			// as a fresh miss; the MSHRs report it as an outstanding
			// long-latency access, so stall-based mechanisms treat it
			// like one.
			u.longLat = res.LLCMiss || res.DoneAt > c.cycle+longLatWait
			u.memIssued = true
			if u.runahead && res.DoneAt > c.cycle+runaheadLoadCutoff {
				// Fire-and-forget: a runahead load that misses does its
				// job the moment the prefetch is in flight. It
				// pseudo-retires immediately with a poisoned (INV)
				// destination rather than holding PRDQ/IQ resources for
				// the full memory latency — this is what lets runahead
				// run hundreds of instructions ahead.
				u.doneAt = c.cycle + 1
				u.inv = true
			}
			if res.LLCMiss && kind == mem.KindLoad && u.inst.PC != c.lastTrainedPC {
				trainSlice(c.sstT, c.prod, u.inst.PC, 4, 16)
				c.lastTrainedPC = u.inst.PC
			}
		}
	case u.isStore():
		u.doneAt = c.cycle + 1 // address generation; data written post-commit
	default:
		u.doneAt = c.cycle + fu.Latency
	}

	if fu.Pipelined {
		c.fuIssued[pool]++
	} else {
		c.fuBusyTill[pool] = u.doneAt
	}
	u.fuLatency = fu.Latency
	u.state = uopIssued
	u.issuedAt = c.cycle
	u.hbAtIssue, u.fsAtIssue = c.ledger.Cum()
	u.issueValid = true
	c.s.TotalIssued++
	c.scheduleCompletion(u)
	if u.runahead {
		c.s.RunaheadExecuted++
	}
	return true
}

// forwardFromStore checks the store queue for an older in-flight store to
// the same 8-byte block; a hit forwards in two cycles without touching the
// cache.
func (c *Core) forwardFromStore(u *uop) (doneAt uint64, ok bool) {
	block := u.inst.Addr >> 3
	for i := len(c.sqList) - 1; i >= 0; i-- {
		s := c.sqList[i]
		if s.seq >= u.seq || s.state == uopDead {
			continue
		}
		if s.state == uopDispatched {
			continue // address not generated yet; no forwarding
		}
		if s.inst.Addr>>3 == block {
			return c.cycle + 2, true
		}
	}
	return 0, false
}

// completeStage retires finished executions: wakes dependents, resolves
// branches (including misprediction recovery), and marks uops completed.
//
// cwSize is the completion wheel's window in cycles: completions within
// cwSize cycles sit in their bucket, later ones (DRAM fills) wait in the
// overflow list. A power of two so the bucket index is a mask.
const cwSize = 256

// cwBucketCap is each bucket's preallocated capacity (see NewWithHierarchy);
// a bucket deeper than this grows normally and keeps the larger backing.
const cwBucketCap = 32

// cwEntry is an overflow registration: doneAt is recorded at insertion so
// migration never has to dereference a possibly-recycled uop.
type cwEntry struct {
	u      *uop
	seq    uint64
	doneAt uint64
}

// scheduleCompletion registers an issued uop's completion on the wheel.
// doneAt is always at least c.cycle+1 when issue succeeds, so the bucket
// the entry lands in is drained before the index can wrap.
//
//rarlint:hot
func (c *Core) scheduleCompletion(u *uop) {
	d := u.doneAt
	if d <= c.cycle {
		// Defensive: the scan-based predecessor completed a same-cycle
		// doneAt on the next cycle's pass; pin the wheel to the same
		// schedule.
		d = c.cycle + 1
	}
	if d-c.cycle < cwSize {
		i := d & (cwSize - 1)
		c.cwBuckets[i] = append(c.cwBuckets[i], waiter{u, u.seq})
	} else {
		c.cwOverflow = append(c.cwOverflow, cwEntry{u, u.seq, d})
		if d < c.cwOvMin {
			c.cwOvMin = d
		}
	}
	c.cwCount++
}

// migrateOverflow moves overflow completions that entered the wheel window
// into their buckets and recomputes the watermark. An entry due exactly
// now lands in this cycle's bucket, which completeStage drains right after
// — identical timing to the scan-based predecessor.
func (c *Core) migrateOverflow() {
	kept := c.cwOverflow[:0]
	min := uint64(math.MaxUint64)
	for _, e := range c.cwOverflow {
		if e.doneAt >= c.cycle+cwSize {
			kept = append(kept, e)
			if e.doneAt < min {
				min = e.doneAt
			}
			continue
		}
		if e.u.seq == e.seq && e.u.state == uopIssued {
			c.cwBuckets[e.doneAt&(cwSize-1)] = append(c.cwBuckets[e.doneAt&(cwSize-1)], waiter{e.u, e.seq})
		} else {
			c.cwCount-- // stale: the uop was squashed (or recycled) while waiting
		}
	}
	c.cwOverflow = kept
	c.cwOvMin = min
}

//rarlint:hot
func (c *Core) completeStage() {
	// Fast paths: nothing in flight at all, then nothing due this cycle.
	// The wheel holds every pending completion in the bucket of its due
	// cycle, so a cycle with no completions is two compares and a nil
	// bucket check — no scan, no compaction.
	if c.cwCount == 0 {
		return
	}
	if c.cwOvMin < c.cycle+cwSize {
		c.migrateOverflow()
	}
	slot := c.cycle & (cwSize - 1)
	b := c.cwBuckets[slot]
	if len(b) == 0 {
		return
	}
	c.cwBuckets[slot] = b[:0]
	c.cwCount -= len(b)
	done := c.doneScratch[:0]
	for _, w := range b {
		// Stale entries — squashed uops, or recycled records carrying a
		// newer seq — drop here; live ones are exactly the issued uops
		// whose doneAt is this cycle.
		if w.u.seq != w.seq || w.u.state != uopIssued {
			continue
		}
		done = append(done, w.u)
	}
	c.doneScratch = done
	if len(done) == 0 {
		return
	}
	// Resolve oldest-first: an older mispredicted branch squashes younger
	// completions in the same cycle. The batch is small (bounded by uops
	// finishing on one cycle), so an insertion sort beats sort.Slice.
	for i := 1; i < len(done); i++ {
		for j := i; j > 0 && done[j-1].seq > done[j].seq; j-- {
			done[j-1], done[j] = done[j], done[j-1]
		}
	}
	for _, u := range done {
		if u.state == uopDead {
			continue
		}
		c.completeUop(u)
	}
}

func (c *Core) completeUop(u *uop) {
	u.state = uopCompleted
	u.hbAtDone, u.fsAtDone = c.ledger.Cum()
	if u.dest >= 0 {
		c.markReady(u.dest)
		c.regs.inv[u.dest] = u.inv
	}
	if u.isBranch() && !u.inst.WrongPath && u.predTaken != u.inst.Taken {
		if u.runahead {
			c.redirectRunahead(u)
		} else {
			c.recoverMispredict(u)
		}
	}
}

// recoverMispredict repairs a normal-mode branch misprediction: squash
// everything younger, rewind the stream and the predictor history, and
// redirect fetch. If the core is in runahead mode (the branch pre-dates
// runahead entry), runahead is aborted first.
func (c *Core) recoverMispredict(u *uop) {
	if c.mode == modeRunahead {
		c.abortRunahead()
	}
	c.squashYounger(u.seq)
	c.clearWrongPath()
	c.stream.rewind(u.streamIdx + 1)
	c.bp.Restore(c.bpSnapArena[u.bpSnap], true, u.inst.PC, u.inst.Taken)
	if u.inst.Taken {
		c.btb.Insert(u.inst.PC, u.inst.Target)
	}
	if c.fetchStallUntil < c.cycle+1 {
		c.fetchStallUntil = c.cycle + 1
	}
}

// squashYounger removes every uop younger than seqB from the ROB and the
// front-end, rolling back rename state.
func (c *Core) squashYounger(seqB uint64) {
	squashed := c.squashScratch[:0]
	for c.robCount > 0 {
		tail := c.robHead + c.robCount - 1
		if tail >= c.cfg.ROB {
			tail -= c.cfg.ROB
		}
		u := c.rob[tail]
		if u.seq <= seqB {
			break
		}
		if u.dest >= 0 {
			c.regs.rat[u.inst.Dest] = u.prevDest
			c.regs.free(u.dest)
		}
		if u.inLQ {
			c.lqCount--
		}
		u.state = uopDead
		c.rob[tail] = nil
		c.robCount--
		squashed = append(squashed, u)
	}
	c.filterSecondary()
	c.clearFrontQ()
	for _, u := range squashed {
		c.release(u)
	}
	c.squashScratch = squashed[:0]
}

// filterSecondary drops dead uops from the issue queue and store queue.
// Completion-wheel entries are NOT purged here: a squashed uop's entry is
// made inert by the seq/state guard and is dropped when its bucket drains
// (or at overflow migration), so squash paths stay O(squashed), not
// O(in-flight).
func (c *Core) filterSecondary() {
	c.rebuildIQ()
	sq := c.sqList[:0]
	for _, u := range c.sqList {
		if u.state != uopDead {
			sq = append(sq, u)
		}
	}
	c.sqList = sq
}

// commitStage retires up to Width completed instructions from the ROB
// head, reporting their ACE windows and releasing resources. Commit is
// architecturally blocked during runahead mode.
func (c *Core) commitStage() {
	if c.mode == modeRunahead {
		return
	}
	for n := 0; n < c.cfg.Width && c.robCount > 0; n++ {
		if c.commitBarrier > 0 && c.s.Committed >= c.commitBarrier {
			break
		}
		u := c.rob[c.robHead]
		if u.state != uopCompleted {
			break
		}
		if u.isStore() {
			if len(c.storeBuf) >= c.cfg.PostCommitStoreBuffer {
				break
			}
			c.storeBuf = append(c.storeBuf, u.inst.Addr)
		}
		c.commitUop(u)
		c.rob[c.robHead] = nil
		c.robHead++
		if c.robHead == c.cfg.ROB {
			c.robHead = 0
		}
		c.robCount--
		c.release(u)
	}
}

func (c *Core) commitUop(u *uop) {
	in := &u.inst
	if in.WrongPath {
		//rarlint:allow hotalloc fatal model-bug exit, never taken on a healthy run
		panic(fmt.Sprintf("core: committing wrong-path uop seq=%d pc=%#x cycle=%d mode=%d wrongPath=%v",
			u.seq, in.PC, c.cycle, c.mode, c.wrongPath))
	}
	if len(u.inj) > 0 {
		// The tagged bits reach architectural state: they were ACE.
		c.resolveInjections(u, InjectCorrupt)
	}
	// FNV-1a over (PC, class): the architectural commit-stream fingerprint.
	h := c.s.CommitHash
	if h == 0 {
		h = 14695981039346656037
	}
	h = (h ^ in.PC) * 1099511628211
	h = (h ^ uint64(in.Class)) * 1099511628211
	c.s.CommitHash = h
	c.s.Committed++
	switch {
	case in.IsLoad():
		c.s.CommittedLoads++
	case in.IsStore():
		c.s.CommittedStores++
	case in.IsBranch():
		c.s.CommittedBranches++
		c.bp.Update(in.PC, in.Taken, u.bpInfo)
		if in.Taken {
			c.btb.Insert(in.PC, in.Target)
		}
		if u.predTaken != in.Taken {
			c.s.Mispredicts++
		}
	}
	if u.prevDest >= 0 {
		c.regs.free(u.prevDest)
	}
	if u.inLQ {
		c.lqCount--
	}
	if u.inSQ {
		for i, s := range c.sqList {
			if s == u {
				c.sqList = append(c.sqList[:i], c.sqList[i+1:]...)
				break
			}
		}
	}
	c.reportACE(u)
	c.stream.release(u.streamIdx + 1)
}

// reportACE resolves the committed instruction's vulnerability windows
// into the ledger (Figure 2 semantics). NOPs are un-ACE; wrong-path
// instructions never reach here.
func (c *Core) reportACE(u *uop) {
	if u.inst.IsNop() {
		return
	}
	now := c.cycle
	hbNow, fsNow := c.ledger.Cum()

	// ROB entry: dispatch → commit.
	c.ledger.Add(ace.ROB, uint64(c.bits.ROBEntry),
		now-u.dispatchedAt, hbNow-u.hbAtDispatch, fsNow-u.fsAtDispatch)

	if !u.issueValid {
		return
	}
	// Issue-queue entry: dispatch → issue.
	c.ledger.Add(ace.IQ, uint64(c.bits.IQEntry),
		u.issuedAt-u.dispatchedAt, u.hbAtIssue-u.hbAtDispatch, u.fsAtIssue-u.fsAtDispatch)

	// Load/store queue: execute → commit.
	if u.isLoad() {
		c.ledger.Add(ace.LQ, uint64(c.bits.LQEntry),
			now-u.issuedAt, hbNow-u.hbAtIssue, fsNow-u.fsAtIssue)
	}
	if u.isStore() {
		c.ledger.Add(ace.SQ, uint64(c.bits.SQEntry),
			now-u.issuedAt, hbNow-u.hbAtIssue, fsNow-u.fsAtIssue)
	}

	// Functional unit: bit width × execution cycles.
	hbFU := minU64(u.fuLatency, u.hbAtDone-u.hbAtIssue)
	fsFU := minU64(u.fuLatency, u.fsAtDone-u.fsAtIssue)
	c.ledger.Add(ace.FU, c.fuWidth(u.inst.Class), u.fuLatency, hbFU, fsFU)

	// Physical register: writeback → commit of the producer.
	if u.dest >= 0 {
		bits := uint64(c.bits.IntReg)
		if c.regs.isFp(u.dest) {
			bits = uint64(c.bits.FpReg)
		}
		c.ledger.Add(ace.RF, bits, now-u.doneAt, hbNow-u.hbAtDone, fsNow-u.fsAtDone)
	}
}

// drainStores writes one committed store per cycle into the L1D.
func (c *Core) drainStores() {
	if len(c.storeBuf) == 0 {
		return
	}
	res := c.hier.Access(c.storeBuf[0], c.cycle, mem.KindStore)
	if res.MSHRStall {
		return
	}
	// Compact instead of re-slicing so the buffer's capacity is reused
	// forever (see dispatchStage); the buffer is bounded by
	// PostCommitStoreBuffer entries, so the copy is cheap.
	n := copy(c.storeBuf, c.storeBuf[1:])
	c.storeBuf = c.storeBuf[:n]
}

func minU64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}
