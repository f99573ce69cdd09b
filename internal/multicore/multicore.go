// Package multicore simulates a chip with several out-of-order cores
// sharing a last-level cache and DRAM — the deployment the paper's
// conclusion points at ("deploying RAR in the OoO cores will further
// enhance soft-error reliability of the overall system", §VI-E).
//
// The model is lockstep — one cycle per core per chip cycle — so LLC
// capacity pressure and DRAM bank/bus queueing between co-runners resolve
// exactly as in the single-core model. Each core runs its own workload
// under its own scheme, so homogeneous (all-RAR) and heterogeneous
// (mixed-scheme) chips can both be built.
package multicore

import (
	"fmt"
	"math"

	"rarsim/internal/config"
	"rarsim/internal/core"
	"rarsim/internal/mem"
	"rarsim/internal/trace"
)

// Workload assigns one core its benchmark and mechanism.
type Workload struct {
	Bench  trace.Benchmark
	Scheme config.Scheme
}

// System is a multicore chip.
type System struct {
	cores  []*core.Core
	shared *mem.SharedLLC
	chip   uint64 // chip cycle

	// watchdog is the no-commit deadline in chip cycles (see
	// chipWatchdogWindow).
	watchdog uint64
}

// chipWatchdogWindow is the chip-level commit-progress slack: if no core
// commits for chipWatchdogWindow chip cycles beyond the longest stall the
// DRAM timing can legitimately cause (core.DRAMStallAllowance), the run
// reports a deadlock. New computes that deadline once.
const chipWatchdogWindow = 1_000_000

// New builds a chip of len(loads) cores with private L1/L2/MSHRs and a
// shared LLC and DRAM. Core i runs loads[i] with a seed derived from seed
// and its index.
func New(cfg config.Core, loads []Workload, seed uint64) (*System, error) {
	if len(loads) == 0 {
		return nil, fmt.Errorf("multicore: need at least one workload")
	}
	shared := mem.NewSharedLLC(cfg.Mem)
	s := &System{shared: shared, watchdog: chipWatchdogWindow + core.DRAMStallAllowance(cfg)}
	for i, w := range loads {
		gen := trace.New(w.Bench, seed+uint64(i)*0x9E37)
		h := mem.NewHierarchyWithShared(cfg.Mem, shared)
		s.cores = append(s.cores, core.NewWithHierarchy(nil, cfg, w.Scheme, w.Bench.Name, gen, h))
	}
	return s, nil
}

// Cores returns the number of cores.
func (s *System) Cores() int { return len(s.cores) }

// Core exposes core i — tests and tools arm individual cores with audits
// (EnableAudit) or fault-injection campaigns (InjectSamples) before Run.
func (s *System) Core(i int) *core.Core { return s.cores[i] }

// FFSkippedCycles returns 0: the chip ticks every core every cycle. It
// remains only because the repository benchmark harness (_rarbench) still
// reports it as a metric.
func (s *System) FFSkippedCycles() uint64 { return 0 }

// Run simulates until every core has committed instructions, freezing
// cores as they finish (a finished core stops issuing memory traffic).
// Every chip cycle steps each live core once, in core order. It returns
// per-core statistics in core order.
func (s *System) Run(instructions uint64) ([]core.Stats, error) {
	running := len(s.cores)
	done := make([]bool, len(s.cores))
	for _, c := range s.cores {
		c.SetCommitLimit(instructions)
	}
	// The watchdog sums committed instructions over *all* cores, finished
	// ones included: a core reaching its commit limit merely stops adding,
	// it never subtracts. (Summing live cores only made the total drop when
	// a core finished, which read as progress and silently granted a
	// genuinely hung co-runner an extra full watchdog window.)
	var lastSum uint64
	lastProgress := s.chip
	for running > 0 {
		s.chip++
		for i, c := range s.cores {
			if done[i] {
				continue
			}
			c.Step()
			if c.Committed() >= instructions {
				done[i] = true
				running--
			}
		}
		var sum uint64
		for _, c := range s.cores {
			sum += c.Committed()
		}
		if sum != lastSum {
			lastSum = sum
			lastProgress = s.chip
		} else if s.chip-lastProgress > s.watchdog {
			return nil, fmt.Errorf("multicore: no commit on any core for %d chip cycles at chip cycle %d (%d cores left)",
				s.watchdog, s.chip, running)
		}
	}
	out := make([]core.Stats, len(s.cores))
	for i, c := range s.cores {
		out[i] = c.Snapshot()
	}
	return out, nil
}

// ChipMTTFRel returns the chip-level mean-time-to-failure of a system run
// relative to a baseline run of the same workloads: the chip's failure
// rate is the sum of the per-core derated rates (FIT_i ∝ AVF_i × N_i,
// Equation 4), so
//
//	MTTF_rel = Σ_i AVF_base_i·N_i / Σ_i AVF_i·N_i.
//
// A zero denominator (no cores, or a run with no derated failure rate at
// all) has no meaningful ratio: the result is NaN, never a fake "worst
// possible" 0 — the same zero-collapse family HarmMean/GeoMean already
// guard against.
func ChipMTTFRel(baseline, system []core.Stats) float64 {
	var num, den float64
	for i := range baseline {
		num += baseline[i].AVF() * float64(baseline[i].TotalBits)
	}
	for i := range system {
		den += system[i].AVF() * float64(system[i].TotalBits)
	}
	if den == 0 {
		return math.NaN()
	}
	return num / den
}

// ChipThroughputRel returns the chip's aggregate instruction throughput
// relative to a baseline run of the same workloads. A zero baseline
// (no cores, or cores that committed nothing) yields NaN: "relative to
// nothing" is undefined, and 0 would silently read as a total stall.
func ChipThroughputRel(baseline, system []core.Stats) float64 {
	var base, sys float64
	for i := range baseline {
		base += baseline[i].IPC()
	}
	for i := range system {
		sys += system[i].IPC()
	}
	if base == 0 {
		return math.NaN()
	}
	return sys / base
}

// LedgerAVFSum is a helper exposing the chip's summed derated rate, for
// ad-hoc reporting.
func LedgerAVFSum(stats []core.Stats) float64 {
	var sum float64
	for i := range stats {
		sum += stats[i].AVF() * float64(stats[i].TotalBits)
	}
	return sum
}
