package main

import (
	"sort"
	"time"

	"rarsim/internal/core"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// percentile is the nearest-rank q-th percentile of ds in milliseconds.
func percentile(ds []time.Duration, q float64) float64 {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if len(s) == 0 {
		return 0
	}
	i := int(q/100*float64(len(s))+0.999999) - 1
	i = max(0, min(i, len(s)-1))
	return float64(s[i]) / float64(time.Millisecond)
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// layerInputs is what the per-layer metrics are computed from.
type layerInputs struct {
	tr         *tracer
	figRoot    int   // span of the traced figures pass
	chipPass   *pass // traced chip pass
	simPass    *pass // engine pass the sim.* metrics come from
	own        *pass // the workload's traced pass
	replays    []replay
	probes     probeResult
	sim        simProbe
	tracedOver float64 // traced pass wall over the untraced passes' mean
}

// layerMetrics computes every per-layer metric. Counts, shares and
// per-kinst rates come from core.Stats and repeat exactly.
func layerMetrics(in layerInputs) metrics {
	m := metrics{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	// experiments: one span per figure; self time is each figure's span
	// minus the time its cells cover.
	var self time.Duration
	for i, id := range in.tr.children(in.figRoot) {
		put("experiments."+figureSteps[i].name+"_s", in.tr.dur(id).Seconds(), "s")
		self += in.tr.selfTime(id)
	}
	put("experiments.self_s", self.Seconds(), "s")

	// sim: engine cells, memo and scheduling.
	sp := in.simPass
	put("sim.cell_p50_ms", percentile(sp.cellDurs, 50), "ms")
	put("sim.cell_p95_ms", percentile(sp.cellDurs, 95), "ms")
	put("sim.hit_share", sp.hitShare, "ratio")
	var busy time.Duration
	for _, d := range sp.cellDurs {
		busy += d
	}
	put("sim.worker_busy_share", busy.Seconds()/(sp.matrixSpan.Seconds()*float64(sp.opt.Parallelism)), "ratio")
	put("sim.key_us", in.sim.keyUs, "us")
	put("sim.hit_us", in.sim.hitUs, "us")

	// core: per-scheme stage-loop self time (RunWarm minus synthesis),
	// from the replays.
	type acc struct {
		self          time.Duration
		insts, cycles uint64
	}
	per := map[string]*acc{}
	var news []float64
	var synth, run time.Duration
	var skipped, cycles uint64
	for _, r := range in.replays {
		a := per[r.cell.scheme.Name]
		if a == nil {
			a = &acc{}
			per[r.cell.scheme.Name] = a
		}
		a.self += r.runDur - r.synthDur
		a.insts += r.stats.Committed + r.stats.Committed/5 // measured plus the n/5 warm-up
		a.cycles += r.cycles
		news = append(news, float64(r.newDur)/float64(time.Millisecond))
		synth += r.synthDur
		run += r.runDur
		skipped += r.ffSkipped
		cycles += r.cycles
	}
	for _, s := range allSchemes() {
		a := per[s.Name]
		if a == nil {
			a = &acc{}
		}
		put("core."+s.Name+".ns_per_inst", nsPer(a.self, int(a.insts)), "ns")
		put("core."+s.Name+".ns_per_cycle", nsPer(a.self, int(a.cycles)), "ns")
	}
	put("core.new_ms", median(news), "ms")
	var sum core.Stats
	for _, r := range in.own.results {
		for _, s := range r.stats {
			sum.Cycles += s.Cycles
			sum.Committed += s.Committed
			sum.RunaheadCycles += s.RunaheadCycles
			sum.TotalDispatched += s.TotalDispatched
			sum.TotalFetched += s.TotalFetched
			sum.Mispredicts += s.Mispredicts
			sum.CommittedBranches += s.CommittedBranches
			sum.Mem.DemandLLCMisses += s.Mem.DemandLLCMisses
			sum.Mem.MSHRFullStalls += s.Mem.MSHRFullStalls
			sum.Mem.DRAMReads += s.Mem.DRAMReads
		}
	}
	put("core.runahead_cycle_share", ratio(sum.RunaheadCycles, sum.Cycles), "ratio")
	put("core.dispatched_per_committed", ratio(sum.TotalDispatched, sum.Committed), "ratio")
	put("core.ff_skipped_share", ratio(skipped, cycles), "ratio")

	// trace: replay probe plus in-situ synthesis share.
	put("trace.ns_per_inst", in.probes.traceNs, "ns")
	put("trace.wp_ns_per_inst", in.probes.wpNs, "ns")
	put("trace.self_share", synth.Seconds()/run.Seconds(), "ratio")
	put("trace.fetched_per_committed", ratio(sum.TotalFetched, sum.Committed), "ratio")

	put("branch.ns_per_branch", in.probes.branchNs, "ns")
	put("branch.mispredict_rate", ratio(sum.Mispredicts, sum.CommittedBranches), "ratio")

	kinst := float64(sum.Committed) / 1000
	put("mem.ns_per_access", in.probes.memNs, "ns")
	put("mem.llc_mpki", float64(sum.Mem.DemandLLCMisses)/kinst, "1/kinst")
	put("mem.mshr_full_per_kinst", float64(sum.Mem.MSHRFullStalls)/kinst, "1/kinst")
	put("mem.dram_reads_per_kinst", float64(sum.Mem.DRAMReads)/kinst, "1/kinst")

	put("ace.ns_per_add", in.probes.aceAddNs, "ns")
	put("ace.ns_per_tick", in.probes.aceTickNs, "ns")

	// multicore: chip host time per simulated instruction.
	skipped, cycles = 0, 0
	for _, c := range in.chipPass.chips {
		put("multicore."+c.name+".ns_per_inst", nsPer(c.wall, int(c.insts)), "ns")
		skipped += c.ffSkipped
		cycles += c.cycles
	}
	put("multicore.ff_skipped_share", ratio(skipped, cycles), "ratio")

	put("bench.traced_over_untraced", in.tracedOver, "ratio")
	return m
}
