package core

import (
	"fmt"

	"rarsim/internal/mem"
)

// Sampled simulation, SimPoint-style: long stretches of the instruction
// stream are fast-forwarded functionally (caches, branch predictor and the
// SST's dependence table stay warm, but no cycle-accurate timing), and
// short windows are simulated in detail. This is how the paper's
// methodology scales 500M-instruction SimPoints; here it lets a user
// sample a long trace at a fraction of the detailed-simulation cost.

// FastForward advances the instruction stream by n instructions
// functionally: memory accesses walk the cache hierarchy and the branch
// predictor trains on every branch, but no pipeline timing is modelled
// (the pseudo-clock advances one cycle per instruction). The pipeline
// must be empty — call it before Run, or between samples via RunSampled.
func (c *Core) FastForward(n uint64) error {
	if c.robCount != 0 || c.frontQ.len() != 0 || c.mode != modeNormal {
		return fmt.Errorf("core: FastForward requires an empty pipeline")
	}
	var released uint64
	for i := uint64(0); i < n; i++ {
		in, idx := c.stream.next()
		c.cycle++
		c.ledger.SetCycle(c.cycle)
		switch {
		case in.IsMem():
			kind := mem.KindLoad
			if in.IsStore() {
				kind = mem.KindStore
			}
			res := c.hier.Access(in.Addr, c.cycle, kind)
			if res.MSHRStall {
				// Functional mode cannot retry; let the pseudo-clock
				// catch up with the outstanding fills and move on.
				c.cycle += 50
			}
		case in.IsBranch():
			_, info := c.bp.Predict(in.PC)
			c.bp.Update(in.PC, in.Taken, info)
			if in.Taken {
				c.btb.Insert(in.PC, in.Target)
			}
		}
		// Track producers so the SST can extract slices immediately
		// after the fast-forward.
		if !in.IsNop() {
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
		released = idx + 1
	}
	c.stream.release(released)
	c.ffInstructions += n
	return nil
}

// drain runs the pipeline with fetch disabled until it is empty, so a
// fast-forward can take over the instruction stream.
func (c *Core) drain() error {
	c.draining = true
	defer func() { c.draining = false }()
	// In-flight instructions past the measured window commit freely; the
	// next window's warmup snapshot excludes them from measurement.
	c.commitBarrier = 0
	deadline := c.cycle + c.watchdog
	for c.robCount != 0 || c.frontQ.len() != 0 || c.mode == modeRunahead || len(c.storeBuf) != 0 {
		if c.cycle > deadline {
			return fmt.Errorf("core: drain did not converge (rob=%d frontQ=%d mode=%d)",
				c.robCount, c.frontQ.len(), c.mode)
		}
		c.Step()
	}
	// Anything still buffered but unfetched stays for the next phase.
	return nil
}

// RunSampled simulates `samples` detailed windows separated by functional
// fast-forwards: each iteration skips ffInstructions functionally, then
// simulates warmup+measured instructions in detail. The returned Stats
// aggregate only the measured windows. Commit limits are managed per
// window, so every sample measures exactly `measured` instructions.
func (c *Core) RunSampled(samples int, ffInstructions, warmup, measured uint64) (Stats, error) {
	if samples <= 0 {
		return Stats{}, fmt.Errorf("core: need at least one sample")
	}
	var agg Stats
	for k := 0; k < samples; k++ {
		if err := c.FastForward(ffInstructions); err != nil {
			return agg, err
		}
		window, err := c.RunWarm(warmup, measured)
		if err != nil {
			return agg, err
		}
		agg = agg.add(window)
		if err := c.drain(); err != nil {
			return agg, err
		}
	}
	c.finalizeStats()
	agg.Benchmark, agg.Scheme, agg.CoreName = c.s.Benchmark, c.s.Scheme, c.s.CoreName
	agg.TotalBits = c.s.TotalBits
	agg.CommitHash = c.s.CommitHash
	return agg, nil
}

// add accumulates w's counters into s.
func (s Stats) add(w Stats) Stats {
	s.Cycles += w.Cycles
	s.Committed += w.Committed
	s.CommittedLoads += w.CommittedLoads
	s.CommittedStores += w.CommittedStores
	s.CommittedBranches += w.CommittedBranches
	s.Mispredicts += w.Mispredicts
	s.WrongPathFetched += w.WrongPathFetched
	s.RunaheadEntries += w.RunaheadEntries
	s.RunaheadCycles += w.RunaheadCycles
	s.RunaheadExecuted += w.RunaheadExecuted
	s.RunaheadDropped += w.RunaheadDropped
	s.Flushes += w.Flushes
	s.TotalFetched += w.TotalFetched
	s.TotalDispatched += w.TotalDispatched
	s.TotalIssued += w.TotalIssued
	s.HeadBlockedCycles += w.HeadBlockedCycles
	s.FullStallCycles += w.FullStallCycles
	for i := range s.ABC {
		s.ABC[i] += w.ABC[i]
	}
	s.TotalABC += w.TotalABC
	s.HeadBlockedABC += w.HeadBlockedABC
	s.FullStallABC += w.FullStallABC
	s.Mem.DemandLoads += w.Mem.DemandLoads
	s.Mem.DemandLLCMisses += w.Mem.DemandLLCMisses
	s.Mem.LLCMissCycles += w.Mem.LLCMissCycles
	s.Mem.LLCBusyCycles += w.Mem.LLCBusyCycles
	s.Mem.DRAMReads += w.Mem.DRAMReads
	s.Mem.DRAMWrites += w.Mem.DRAMWrites
	s.Mem.PrefetchIssued += w.Mem.PrefetchIssued
	s.Mem.MSHRFullStalls += w.Mem.MSHRFullStalls
	return s
}
