package core

import (
	"sort"

	"rarsim/internal/ace"
)

// Fault-injection support: statistical soft-error injection as an
// independent check on the ACE-analysis ledger (the paper's footnote 1
// discusses fault injection as the alternative methodology).
//
// A sample names a (cycle, structure, slot). When simulation time reaches
// the cycle, the occupant of the slot — if any, and if the slot is inside
// its vulnerability window — is tagged. The outcome resolves with the
// occupant's fate: commit means the flipped bit would have corrupted
// architectural state (the bit was ACE); a squash of any kind means the
// error was benign. Injection is purely observational: it never perturbs
// timing, so hundreds of samples resolve in a single deterministic run.

// InjectOutcome classifies one injection sample.
type InjectOutcome uint8

const (
	// InjectPending: not yet reached or not yet resolved.
	InjectPending InjectOutcome = iota
	// InjectMasked: the slot was empty, architecturally protected, or
	// outside its vulnerability window (e.g. an issued IQ entry, a NOP).
	InjectMasked
	// InjectSquashed: the occupant was speculative and was squashed —
	// wrong path, runahead state, or a pipeline flush discarded it.
	InjectSquashed
	// InjectCorrupt: the occupant committed; the flipped bit reached
	// architectural state. The bit was ACE.
	InjectCorrupt
)

// String names the outcome.
func (o InjectOutcome) String() string {
	switch o {
	case InjectPending:
		return "pending"
	case InjectMasked:
		return "masked"
	case InjectSquashed:
		return "squashed"
	case InjectCorrupt:
		return "corrupt"
	}
	return "outcome?"
}

// InjectSample is one fault-injection trial.
type InjectSample struct {
	// Cycle is when the fault strikes.
	Cycle uint64
	// Structure is the target structure (ROB, IQ, LQ, SQ or RF; FU
	// occupancy is transient and not sampled).
	Structure ace.Structure
	// Slot is the physical entry index within the structure.
	Slot int
	// Outcome is filled in by the simulation.
	Outcome InjectOutcome
}

// InjectSamples arms the core with injection trials. Must be called
// before Run; the slice is sorted by cycle and updated in place.
func (c *Core) InjectSamples(samples []InjectSample) {
	sort.SliceStable(samples, func(i, j int) bool { return samples[i].Cycle < samples[j].Cycle })
	c.injSamples = samples
	c.injNext = 0
}

// processInjections fires every sample whose cycle has arrived.
func (c *Core) processInjections() {
	for c.injNext < len(c.injSamples) && c.injSamples[c.injNext].Cycle <= c.cycle {
		i := c.injNext
		c.injNext++
		s := &c.injSamples[i]
		u := c.injectOccupant(s.Structure, s.Slot)
		if u == nil {
			s.Outcome = InjectMasked
			continue
		}
		u.inj = append(u.inj, int32(i))
	}
}

// injectOccupant finds the uop whose vulnerable state occupies the slot at
// the current cycle, or nil when the slot holds no ACE-candidate state.
func (c *Core) injectOccupant(st ace.Structure, slot int) *uop {
	switch st {
	case ace.ROB:
		if slot < 0 || slot >= c.cfg.ROB {
			return nil
		}
		u := c.rob[slot]
		if u == nil || u.inst.IsNop() {
			return nil // empty, or un-ACE by definition
		}
		return u
	case ace.IQ:
		// The issue queue's live entries are exactly the waiting uops;
		// an entry is vulnerable from dispatch to issue. Slot positions
		// are architectural, so tombstones must be squeezed out first —
		// compaction reproduces exactly the dense layout a per-cycle-
		// compacting issue queue presents at this point in the cycle.
		c.compactIQ()
		if slot < 0 || slot >= len(c.iq) {
			return nil
		}
		return c.iq[slot].u
	case ace.LQ:
		// Address/data fields are vulnerable from execute to commit.
		n := 0
		for i := 0; i < c.robCount; i++ {
			u := c.rob[(c.robHead+i)%c.cfg.ROB]
			if u == nil || !u.inLQ || u.state == uopDispatched {
				continue
			}
			if n == slot {
				return u
			}
			n++
		}
		return nil
	case ace.SQ:
		n := 0
		for _, u := range c.sqList {
			if u.state == uopDispatched || u.state == uopDead {
				continue
			}
			if n == slot {
				return u
			}
			n++
		}
		return nil
	case ace.RF:
		// A physical register is vulnerable from writeback until its
		// producer commits. Architectural registers are ECC-protected
		// (§IV-A), so committed values are masked.
		for i := 0; i < c.robCount; i++ {
			u := c.rob[(c.robHead+i)%c.cfg.ROB]
			if u != nil && u.dest == int16(slot) && u.state == uopCompleted {
				return u
			}
		}
		return nil
	}
	return nil
}

// resolveInjections marks u's pending samples with the outcome and clears
// the tags.
func (c *Core) resolveInjections(u *uop, o InjectOutcome) {
	for _, i := range u.inj {
		if c.injSamples[i].Outcome == InjectPending {
			c.injSamples[i].Outcome = o
		}
	}
	u.inj = u.inj[:0]
}

// release resolves any pending injection tags as squashed and returns the
// uop to the pool. Every terminal path for a uop goes through here;
// commit resolves Corrupt explicitly beforehand.
func (c *Core) release(u *uop) {
	if len(u.inj) > 0 {
		c.resolveInjections(u, InjectSquashed)
	}
	if u.bpSnap >= 0 {
		c.bpSnapFree = append(c.bpSnapFree, u.bpSnap)
		u.bpSnap = -1
	}
	c.pool.put(u)
}
