package main

import (
	"time"

	"rarsim/internal/ace"
	"rarsim/internal/branch"
	"rarsim/internal/config"
	"rarsim/internal/isa"
	"rarsim/internal/mem"
	"rarsim/internal/sim"
	"rarsim/internal/trace"
)

// Replay probes time one layer at a time through that layer's public
// functions, on inputs built from the workload's own benchmarks and
// seed. Each probe's comment names the end-to-end metric and workload
// its number predicts; README.md has the full table.

// probeInsts is how many instructions each probe draws per benchmark.
const probeInsts = 100_000

// probeResult holds the per-operation host times of the probes.
type probeResult struct {
	traceNs, wpNs float64 // per synthesised instruction
	branchNs      float64 // per Predict+Update pair
	memNs         float64 // per Hierarchy.Access
	aceAddNs      float64 // per Ledger.Add
	aceTickNs     float64 // per Ledger.TickBlocked
}

// stream draws n correct-path instructions of b from a fresh generator.
func stream(b trace.Benchmark, seed uint64, n int) []isa.Inst {
	out := make([]isa.Inst, n)
	trace.New(b, seed).NextBlock(out)
	return out
}

func nsPer(d time.Duration, ops int) float64 {
	if ops == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(ops)
}

// runProbes runs every layer probe over benches, one span per probe
// under parent.
func runProbes(tr *tracer, parent int, benches []trace.Benchmark, seed uint64) probeResult {
	streams := make([][]isa.Inst, len(benches))
	for i, b := range benches {
		streams[i] = stream(b, seed, probeInsts)
	}
	var r probeResult
	probe := func(name string, f func()) {
		id := tr.begin("probe "+name, parent)
		f()
		tr.end(id)
	}
	// trace: Generator.NextBlock and WrongPathBlock. Correct-path
	// synthesis predicts cpu_s on compute; wrong-path synthesis predicts
	// cpu_s on figures.
	probe("trace", func() { r.traceNs, r.wpNs = probeTrace(benches, streams, seed) })
	// branch: Predictor.Predict plus Update on the branch stream;
	// predicts cpu_s on compute.
	probe("branch", func() { r.branchNs = probeBranch(streams) })
	// mem: Hierarchy.Access on the load/store address stream; predicts
	// cpu_s on chip and figures, and no change on compute.
	probe("mem", func() { r.memNs = probeMem(streams) })
	// ace: Ledger.Add and TickBlocked on windows derived from the
	// stream; predicts a small share of cpu_s on every workload.
	probe("ace", func() { r.aceAddNs, r.aceTickNs = probeACE(streams) })
	return r
}

func probeTrace(benches []trace.Benchmark, streams [][]isa.Inst, seed uint64) (correctNs, wrongNs float64) {
	const block = 64
	buf := make([]isa.Inst, block)
	var correct, wrong time.Duration
	insts, wpInsts := 0, 0
	for i, b := range benches {
		g := trace.New(b, seed)
		t := time.Now()
		for n := 0; n < probeInsts; n += block {
			g.NextBlock(buf)
		}
		correct += time.Since(t)
		insts += (probeInsts + block - 1) / block * block
		// Wrong-path groups start at the stream's own branch targets.
		t = time.Now()
		for _, in := range streams[i] {
			if in.IsBranch() {
				g.WrongPathBlock(buf[:8], in.Target)
				wpInsts += 8
			}
		}
		wrong += time.Since(t)
	}
	return nsPer(correct, insts), nsPer(wrong, wpInsts)
}

func probeBranch(streams [][]isa.Inst) float64 {
	var d time.Duration
	ops := 0
	for _, s := range streams {
		p := branch.NewPredictor()
		t := time.Now()
		for i := range s {
			if s[i].IsBranch() {
				_, info := p.Predict(s[i].PC)
				p.Update(s[i].PC, s[i].Taken, info)
				ops++
			}
		}
		d += time.Since(t)
	}
	return nsPer(d, ops)
}

func probeMem(streams [][]isa.Inst) float64 {
	var d time.Duration
	ops := 0
	for _, s := range streams {
		h := mem.NewHierarchy(config.Baseline().Mem)
		var now uint64
		t := time.Now()
		for i := range s {
			now++ // one instruction per cycle
			switch {
			case s[i].IsLoad():
				h.Access(s[i].Addr, now, mem.KindLoad)
				ops++
			case s[i].IsStore():
				h.Access(s[i].Addr, now, mem.KindStore)
				ops++
			}
		}
		d += time.Since(t)
	}
	return nsPer(d, ops)
}

func probeACE(streams [][]isa.Inst) (addNs, tickNs float64) {
	type window struct {
		s                        ace.Structure
		bits, cycles, hb, fs     uint64
		headBlocked, fullStalled bool
	}
	bits := ace.DefaultBits()
	var add, tick time.Duration
	ops := 0
	for _, s := range streams {
		// One residency window per instruction: memory operations sit in
		// the load or store queue for a time drawn from their address,
		// everything else in the ROB for a time drawn from its PC.
		ws := make([]window, len(s))
		for i := range s {
			w := window{s: ace.ROB, bits: uint64(bits.ROBEntry), cycles: 1 + s[i].PC>>2&15}
			switch {
			case s[i].IsLoad():
				w = window{s: ace.LQ, bits: uint64(bits.LQEntry), cycles: 1 + s[i].Addr>>6&255}
				w.headBlocked = w.cycles > 128
				w.fullStalled = w.cycles > 192
			case s[i].IsStore():
				w = window{s: ace.SQ, bits: uint64(bits.SQEntry), cycles: 1 + s[i].Addr>>6&63}
			}
			if w.headBlocked {
				w.hb = w.cycles / 2
			}
			if w.fullStalled {
				w.fs = w.cycles / 4
			}
			ws[i] = w
		}
		l := ace.NewLedger()
		t := time.Now()
		for _, w := range ws {
			l.Add(w.s, w.bits, w.cycles, w.hb, w.fs)
		}
		add += time.Since(t)
		t = time.Now()
		for _, w := range ws {
			l.TickBlocked(w.headBlocked, w.fullStalled)
		}
		tick += time.Since(t)
		ops += len(ws)
	}
	return nsPer(add, ops), nsPer(tick, ops)
}

// simProbe holds the engine probe's per-call host times.
type simProbe struct {
	keyUs, hitUs float64
}

// probeSim times sim.KeyFor and a memo-hit Engine.Run over the pass's
// unique cells. Both are per-cell engine overhead: they predict wall_s
// on figures, where 272 of 554 lookups are hits.
func probeSim(p *pass) simProbe {
	const rounds = 5
	var key, hit time.Duration
	t := time.Now()
	for r := 0; r < rounds; r++ {
		for _, c := range p.cells {
			sim.KeyFor(c.cfg, c.scheme, c.bench, p.opt)
		}
	}
	key = time.Since(t)
	t = time.Now()
	for r := 0; r < rounds; r++ {
		for _, c := range p.cells {
			_, _ = p.eng.Run(c.cfg, c.scheme, c.bench, p.opt) // a memo hit; checked when the pass ran
		}
	}
	hit = time.Since(t)
	ops := rounds * len(p.cells)
	return simProbe{keyUs: nsPer(key, ops) / 1e3, hitUs: nsPer(hit, ops) / 1e3}
}
