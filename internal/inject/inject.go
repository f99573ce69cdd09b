// Package inject runs statistical fault-injection campaigns against the
// simulated core and compares the empirical vulnerability with the
// ACE-analysis ledger.
//
// The paper quantifies soft-error vulnerability with ACE analysis and
// notes (footnote 1) that "an elaborate fault injection campaign might
// report lower absolute vulnerability numbers, but the overall conclusions
// and insights would be similar". This package provides that campaign:
// uniformly random (cycle, structure, entry) strikes, weighted by each
// structure's bit capacity, classified by the fate of the struck state —
// corrupt (the occupant committed: the bit was ACE), squashed (speculative
// state discarded by recovery, flushing, or a runahead exit), or masked
// (empty slot, protected state, or outside the vulnerability window).
//
// Because injection in this model is observational (a strike tags state,
// it never alters timing), a whole campaign resolves in two deterministic
// simulations: one to learn the cycle count, one carrying every sample.
package inject

import (
	"fmt"
	"math"

	"rarsim/internal/ace"
	"rarsim/internal/config"
	"rarsim/internal/core"
	"rarsim/internal/trace"
)

// Campaign configures an injection run.
type Campaign struct {
	// Trials is the number of fault strikes to sample.
	Trials int
	// Instructions and Warmup mirror sim.Options: strikes land only in
	// the measured (post-warmup) region.
	Instructions uint64
	Warmup       uint64
	// Seed drives both workload generation and strike sampling.
	Seed uint64
}

// Result is the outcome of a campaign.
type Result struct {
	Samples  []core.InjectSample
	Corrupt  int
	Squashed int
	Masked   int
	Pending  int

	// LedgerAVF is the ACE-analysis AVF over the sampled structures
	// (ROB, IQ, LQ, SQ, RF — the FU share is excluded from both sides),
	// from the same measured region.
	LedgerAVF float64
	// Stats is the underlying run's statistics.
	Stats core.Stats
}

// EmpiricalAVF returns the fraction of strikes that corrupted
// architectural state — the injection-measured vulnerability.
func (r Result) EmpiricalAVF() float64 {
	n := len(r.Samples)
	if n == 0 {
		return 0
	}
	return float64(r.Corrupt) / float64(n)
}

// StdErr returns the binomial standard error of EmpiricalAVF.
func (r Result) StdErr() float64 {
	n := float64(len(r.Samples))
	if n == 0 {
		return 0
	}
	p := r.EmpiricalAVF()
	return math.Sqrt(p * (1 - p) / n)
}

// sampledStructures are the injection targets and their per-entry bit
// budgets; FUs hold state too transiently to sample meaningfully.
func sampledStructures(cfg config.Core, bits ace.Bits) (structs []ace.Structure, slots []int, weights []float64) {
	add := func(s ace.Structure, n, entryBits int) {
		structs = append(structs, s)
		slots = append(slots, n)
		weights = append(weights, float64(n*entryBits))
	}
	add(ace.ROB, cfg.ROB, bits.ROBEntry)
	add(ace.IQ, cfg.IQ, bits.IQEntry)
	add(ace.LQ, cfg.LQ, bits.LQEntry)
	add(ace.SQ, cfg.SQ, bits.SQEntry)
	// The register files differ in width; weight by total bits but slot
	// over the whole physical register space.
	add(ace.RF, cfg.IntRegs+cfg.FpRegs,
		(cfg.IntRegs*bits.IntReg+cfg.FpRegs*bits.FpReg)/(cfg.IntRegs+cfg.FpRegs))
	return structs, slots, weights
}

// Run executes a campaign for one (core, scheme, benchmark) cell.
func Run(cfg config.Core, scheme config.Scheme, bench trace.Benchmark, camp Campaign) (Result, error) {
	if camp.Trials <= 0 {
		camp.Trials = 500
	}

	// Pass 1: learn the measured region's cycle span.
	probe := core.New(nil, cfg, scheme, bench, camp.Seed)
	warmStats, err := probe.RunWarm(camp.Warmup, camp.Instructions)
	if err != nil {
		return Result{}, fmt.Errorf("inject: probe run: %w", err)
	}
	// The measured region spans the last warmStats.Cycles of the run.
	start := probe.CycleCount() - warmStats.Cycles
	span := warmStats.Cycles

	// Build the strike list.
	rnd := newRNG(camp.Seed ^ 0xFA17)
	bits := ace.DefaultBits()
	structs, slots, weights := sampledStructures(cfg, bits)
	var totalW float64
	for _, w := range weights {
		totalW += w
	}
	samples := make([]core.InjectSample, camp.Trials)
	for i := range samples {
		roll := rnd.float64() * totalW
		k := 0
		for k < len(weights)-1 && roll >= weights[k] {
			roll -= weights[k]
			k++
		}
		samples[i] = core.InjectSample{
			Cycle:     start + 1 + rnd.uint64n(span),
			Structure: structs[k],
			Slot:      int(rnd.uint64n(uint64(slots[k]))),
		}
	}

	// Pass 2: the same deterministic run, carrying the strikes.
	c := core.New(nil, cfg, scheme, bench, camp.Seed)
	c.InjectSamples(samples)
	st, err := c.RunWarm(camp.Warmup, camp.Instructions)
	if err != nil {
		return Result{}, fmt.Errorf("inject: campaign run: %w", err)
	}

	res := Result{Samples: samples, Stats: st}
	for _, s := range samples {
		switch s.Outcome {
		case core.InjectCorrupt:
			res.Corrupt++
		case core.InjectSquashed:
			res.Squashed++
		case core.InjectMasked:
			res.Masked++
		default:
			res.Pending++
		}
	}

	// Ledger AVF over the same structures (exclude FU on both sides).
	var abc uint64
	for _, s := range []ace.Structure{ace.ROB, ace.IQ, ace.LQ, ace.SQ, ace.RF} {
		abc += st.ABC[s]
	}
	res.LedgerAVF = ace.AVF(abc, uint64(totalW), st.Cycles)
	return res, nil
}

// rng is a private splitmix64 for strike sampling.
type rng struct{ state uint64 }

func newRNG(seed uint64) *rng {
	return &rng{state: seed*0x9E3779B97F4A7C15 + 0xD1B54A32D192ED03}
}

func (r *rng) next() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *rng) uint64n(n uint64) uint64 {
	if n == 0 {
		return 0
	}
	return r.next() % n
}

func (r *rng) float64() float64 { return float64(r.next()>>11) / (1 << 53) }
