package experiments

import (
	"fmt"

	"rarsim/internal/config"
	"rarsim/internal/core"
	"rarsim/internal/energy"
	"rarsim/internal/inject"
	"rarsim/internal/metrics"
	"rarsim/internal/multicore"
	"rarsim/internal/report"
	"rarsim/internal/sim"
	"rarsim/internal/trace"
)

// corestats aliases core.Stats for the multicore extension table.
type corestats = core.Stats

// Ablation experiments beyond the paper's figures, for the design choices
// DESIGN.md calls out. They answer the "what if" questions the paper's
// §III-D implementation discussion raises but does not sweep.

// AblationTimer sweeps the 4-bit ROB-head countdown timer that implements
// RAR's early-start LLC-miss detection (§III-D fixes it at 15). A short
// timer triggers runahead on L2-latency waits (spurious flushes); a long
// timer delays coverage of the memory shadow.
func AblationTimer(c Config) error {
	timers := []uint64{7, 15, 31, 63}
	cores := make([]config.Core, 0, len(timers))
	for _, tv := range timers {
		core := config.Baseline()
		core.RunaheadTimer = tv
		core.Name = fmt.Sprintf("timer-%d", tv)
		cores = append(cores, core)
	}
	schemes := []config.Scheme{config.OoO, config.RAR}
	rs, err := c.matrix(cores, schemes, trace.MemoryIntensive(), c.Opt)
	if err != nil {
		return err
	}
	t := report.NewTable("Ablation: RAR countdown-timer value (memory-intensive averages)",
		"timer", "MTTF", "ABC", "IPC", "entries/kinst")
	for _, core := range cores {
		var entries, insts uint64
		for _, b := range memNames() {
			st := rs.MustStats(core.Name, config.RAR.Name, b)
			entries += st.RunaheadEntries
			insts += st.Committed
		}
		t.AddRow(core.Name,
			report.X(rs.MeanMTTF(core.Name, config.RAR.Name, memNames())),
			report.F(rs.MeanABCNorm(core.Name, config.RAR.Name, memNames())),
			report.F(rs.MeanIPCNorm(core.Name, config.RAR.Name, memNames())),
			fmt.Sprintf("%.2f", 1000*float64(entries)/float64(insts)))
	}
	return c.emit(t, "ablation_timer")
}

// AblationMSHR sweeps the L1D miss-status holding registers. MSHRs bound
// both the baseline's MLP and how deep runahead prefetching can run, so
// they gate the performance side of every runahead variant.
func AblationMSHR(c Config) error {
	sizes := []int{10, 20, 40}
	cores := make([]config.Core, 0, len(sizes))
	for _, n := range sizes {
		core := config.Baseline()
		core.Mem.MSHRs = n
		core.Name = fmt.Sprintf("mshr-%d", n)
		cores = append(cores, core)
	}
	schemes := []config.Scheme{config.OoO, config.PRE, config.RAR}
	rs, err := c.matrix(cores, schemes, trace.MemoryIntensive(), c.Opt)
	if err != nil {
		return err
	}
	t := report.NewTable("Ablation: L1D MSHR count (memory-intensive averages)",
		"config", "OoO MLP", "OoO stall/kinst", "PRE IPC", "RAR IPC", "RAR MTTF")
	for _, core := range cores {
		// MSHR-full stalls per kilo-instruction on the baseline: the
		// direct evidence that the swept knob is the binding resource.
		var stalls []float64
		for _, b := range memNames() {
			st := rs.MustStats(core.Name, config.OoO.Name, b)
			stalls = append(stalls, 1000*metrics.Ratio(float64(st.Mem.MSHRFullStalls), float64(st.Committed)))
		}
		t.AddRow(core.Name,
			report.F(rs.MeanMLP(core.Name, config.OoO.Name, memNames())),
			fmt.Sprintf("%.1f", metrics.ArithMean(stalls)),
			report.F(rs.MeanIPCNorm(core.Name, config.PRE.Name, memNames())),
			report.F(rs.MeanIPCNorm(core.Name, config.RAR.Name, memNames())),
			report.X(rs.MeanMTTF(core.Name, config.RAR.Name, memNames())))
	}
	return c.emit(t, "ablation_mshr")
}

// AblationScaledRAR extends Figure 10 with the performance dimension: how
// the RAR-versus-OoO IPC and MTTF ratios evolve as the back-end grows
// (the paper's conclusion claims RAR becomes more effective on larger
// cores — this quantifies both axes).
func AblationScaledRAR(c Config) error {
	cores := config.ScaledCores()
	schemes := []config.Scheme{config.OoO, config.RAR}
	rs, err := c.matrix(cores, schemes, trace.MemoryIntensive(), c.Opt)
	if err != nil {
		return err
	}
	t := report.NewTable("Ablation: RAR effectiveness vs back-end size",
		"core", "ROB", "RAR MTTF", "RAR ABC", "RAR IPC")
	for _, core := range cores {
		t.AddRow(core.Name, fmt.Sprintf("%d", core.ROB),
			report.X(rs.MeanMTTF(core.Name, config.RAR.Name, memNames())),
			report.F(rs.MeanABCNorm(core.Name, config.RAR.Name, memNames())),
			report.F(rs.MeanIPCNorm(core.Name, config.RAR.Name, memNames())))
	}
	return c.emit(t, "ablation_scaling")
}

// AblationSeeds checks the robustness of the headline result across
// workload-generation seeds: the RAR MTTF/IPC averages must not be an
// artefact of one particular synthetic instruction stream.
func AblationSeeds(c Config) error {
	seeds := []uint64{42, 1337, 20220402}
	t := report.NewTable("Ablation: workload seeds (memory-intensive averages)",
		"seed", "RAR MTTF", "RAR ABC", "RAR IPC", "PRE IPC")
	for _, seed := range seeds {
		opt := c.Opt
		opt.Seed = seed
		rs, err := c.matrix(baselineList(),
			[]config.Scheme{config.OoO, config.PRE, config.RAR},
			trace.MemoryIntensive(), opt)
		if err != nil {
			return err
		}
		t.AddRow(fmt.Sprintf("%d", seed),
			report.X(rs.MeanMTTF(base, config.RAR.Name, memNames())),
			report.F(rs.MeanABCNorm(base, config.RAR.Name, memNames())),
			report.F(rs.MeanIPCNorm(base, config.RAR.Name, memNames())),
			report.F(rs.MeanIPCNorm(base, config.PRE.Name, memNames())))
	}
	return c.emit(t, "ablation_seeds")
}

// AblationInjection cross-validates the ACE-analysis ledger with a
// statistical fault-injection campaign (footnote 1 of the paper): the
// empirical corrupt-strike fraction must track the ledger AVF, and RAR
// must convert corrupt strikes into squashed ones.
func AblationInjection(c Config) error {
	t := report.NewTable("Validation: fault injection vs ACE analysis",
		"benchmark", "scheme", "inject AVF", "ledger AVF", "corrupt", "squashed", "masked")
	for _, bn := range []string{"libquantum", "gems", "mcf"} {
		b, err := trace.ByName(bn)
		if err != nil {
			return err
		}
		for _, s := range []config.Scheme{config.OoO, config.RAR} {
			res, err := inject.Run(config.Baseline(), s, b, inject.Campaign{
				Trials:       2000,
				Instructions: c.Opt.Instructions,
				Warmup:       c.Opt.Warmup,
				Seed:         c.Opt.Seed,
			})
			if err != nil {
				return err
			}
			t.AddRow(bn, s.Name,
				fmt.Sprintf("%.4f±%.4f", res.EmpiricalAVF(), res.StdErr()),
				fmt.Sprintf("%.4f", res.LedgerAVF),
				fmt.Sprintf("%d", res.Corrupt),
				fmt.Sprintf("%d", res.Squashed),
				fmt.Sprintf("%d", res.Masked))
		}
	}
	return c.emit(t, "ablation_injection")
}

// Ablations runs every ablation, sharing one memoizing engine across
// them (AblationInjection and AblationMulticore drive the simulator
// directly rather than through matrices, so they do not hit the cache).
func Ablations(c Config) error {
	if c.Engine == nil {
		c.Engine = sim.NewEngine()
	}
	for _, f := range []func(Config) error{AblationTimer, AblationMSHR, AblationScaledRAR, AblationSeeds, AblationInjection, AblationMulticore, AblationEnergy} {
		if err := f(c); err != nil {
			return err
		}
	}
	return nil
}

// AbsoluteMTTFHours converts a run's AVF into a wall-clock mean time to
// failure, given a raw device error rate in FIT per bit (Equation 4:
// FIT = AVF × raw rate, derated over the core's vulnerable bits; MTTF is
// its inverse, with FIT defined per 10^9 device-hours). The paper reports
// only normalised MTTF — this helper exists for tools that want absolute
// estimates under an assumed technology error rate.
func AbsoluteMTTFHours(avf float64, totalBits uint64, rawFITPerBit float64) float64 {
	fit := avf * rawFITPerBit * float64(totalBits)
	if fit == 0 {
		return 0
	}
	return 1e9 / fit
}

// AblationMulticore evaluates the paper's §VI-E deployment: a four-core
// chip with shared LLC and DRAM running memory-intensive co-runners, as
// an all-OoO chip versus an all-RAR chip. Chip failure rates add across
// cores, so chip MTTF is the derated-rate-weighted combination.
func AblationMulticore(c Config) error {
	names := []string{"libquantum", "gems", "fotonik", "milc"}
	build := func(scheme config.Scheme) ([]corestats, error) {
		var loads []multicore.Workload
		for _, n := range names {
			b, err := trace.ByName(n)
			if err != nil {
				return nil, err
			}
			loads = append(loads, multicore.Workload{Bench: b, Scheme: scheme})
		}
		sys, err := multicore.New(config.Baseline(), loads, c.Opt.Seed)
		if err != nil {
			return nil, err
		}
		return sys.Run(c.Opt.Instructions)
	}
	base, err := build(config.OoO)
	if err != nil {
		return err
	}
	rar, err := build(config.RAR)
	if err != nil {
		return err
	}
	t := report.NewTable("Extension: 4-core shared-LLC chip, all-OoO vs all-RAR",
		"core", "OoO IPC", "RAR IPC", "OoO AVF", "RAR AVF")
	for i, n := range names {
		t.AddRow(n,
			report.F(base[i].IPC()), report.F(rar[i].IPC()),
			report.F(base[i].AVF()), report.F(rar[i].AVF()))
	}
	t.AddRow("chip",
		"1.000", report.F(multicore.ChipThroughputRel(base, rar)),
		"1.00x", report.X(multicore.ChipMTTFRel(base, rar)))
	return c.emit(t, "ablation_multicore")
}

// AblationEnergy estimates the energy cost of every scheme with the
// event-energy model: the extra speculative activity of runahead and the
// refetch work of the flush-based schemes, against the static energy saved
// by finishing sooner. The literature's claim (runahead costs a few
// percent, unlike redundancy's ~2x) should reproduce.
func AblationEnergy(c Config) error {
	schemes := append([]config.Scheme{config.OoO}, config.RunaheadVariants()...)
	rs, err := c.matrix(baselineList(), schemes, trace.MemoryIntensive(), c.Opt)
	if err != nil {
		return err
	}
	model := energy.DefaultModel()
	t := report.NewTable("Ablation: event-energy model (memory-intensive averages)",
		"scheme", "energy vs OoO", "EPI pJ", "fetches/commit", "wrong-path%")
	for _, s := range schemes {
		var ovs, epis, fpc, wp []float64
		for _, b := range memNames() {
			ooo := rs.MustStats(base, config.OoO.Name, b)
			st := rs.MustStats(base, s.Name, b)
			ovs = append(ovs, model.Overhead(ooo, st))
			epis = append(epis, model.EPI(st))
			fpc = append(fpc, float64(st.TotalFetched)/float64(st.Committed))
			// Share of fetch bandwidth burnt on wrong-path work: the
			// part of the energy overhead speculation alone explains.
			wp = append(wp, 100*metrics.Ratio(float64(st.WrongPathFetched), float64(st.TotalFetched)))
		}
		t.AddRow(s.Name,
			report.F(metrics.ArithMean(ovs)),
			fmt.Sprintf("%.0f", metrics.ArithMean(epis)),
			report.F(metrics.ArithMean(fpc)),
			fmt.Sprintf("%.1f%%", metrics.ArithMean(wp)))
	}
	return c.emit(t, "ablation_energy")
}
