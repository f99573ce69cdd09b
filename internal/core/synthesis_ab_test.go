package core

import (
	"reflect"
	"testing"
	"testing/quick"

	"rarsim/internal/ace"
	"rarsim/internal/config"
	"rarsim/internal/isa"
	"rarsim/internal/trace"
)

// The batched-synthesis A/B harness: every test here runs the same
// workload twice — once batched (the generator's NextBlock and
// WrongPathBlock, the stream buffer refilling streamRefillBlock
// instructions at a time) and once one instruction at a time (a stream
// buffer refilling a single instruction per call, from a source that
// builds every block out of the generator's per-instruction Next and
// WrongPath, the reference the block methods are specified against) —
// and requires the resulting Stats to be byte-identical.

// perInstSource is a BlockSource that fills each block one instruction
// at a time through the generator's Next and WrongPath methods.
type perInstSource struct{ g *trace.Generator }

func (p perInstSource) NextBlock(dst []isa.Inst) {
	for i := range dst {
		p.g.Next(&dst[i])
	}
}

func (p perInstSource) WrongPathBlock(dst []isa.Inst, pc uint64) {
	for i := range dst {
		p.g.WrongPath(&dst[i], pc)
		pc += isa.InstBytes
	}
}

// newSynthCore builds a core over a fresh generator for b: batched, or
// one instruction per refill through perInstSource.
func newSynthCore(scheme config.Scheme, b trace.Benchmark, seed uint64, batched bool) *Core {
	g := trace.New(b, seed)
	if batched {
		return NewFromSource(config.Baseline(), scheme, b.Name, g)
	}
	c := NewFromSource(config.Baseline(), scheme, b.Name, perInstSource{g})
	c.stream.refill = 1
	return c
}

// runBlockAB runs (scheme, bench) batched and one instruction at a time
// and returns both measured Stats.
func runBlockAB(t *testing.T, scheme config.Scheme, benchName string,
	warmup, measured uint64) (batched, perInst Stats) {
	t.Helper()
	b, err := trace.ByName(benchName)
	if err != nil {
		t.Fatal(err)
	}
	run := func(batched bool) Stats {
		st, err := newSynthCore(scheme, b, 42, batched).RunWarm(warmup, measured)
		if err != nil {
			t.Fatalf("%s/%s batched=%v: %v", scheme.Name, benchName, batched, err)
		}
		return st
	}
	return run(true), run(false)
}

// TestBatchedSynthesisEquivalence: for every scheme, on a memory-bound and
// a compute-bound benchmark, block-refilled synthesis must produce Stats
// byte-identical to one-instruction-at-a-time synthesis. The runahead
// schemes exercise mid-block squash/refill: runahead entry and exit
// rewind the stream cursor into the middle of refilled blocks, and
// mispredicted hammocks fetch wrong-path groups straddling refill
// boundaries.
func TestBatchedSynthesisEquivalence(t *testing.T) {
	schemes := append(config.Schemes(), config.RunaheadVariants()...)
	for _, bn := range []string{"libquantum", "mcf", "exchange2"} {
		for _, s := range schemes {
			s, bn := s, bn
			t.Run(bn+"/"+s.Name, func(t *testing.T) {
				t.Parallel()
				batched, perInst := runBlockAB(t, s, bn, 5_000, 30_000)
				if !reflect.DeepEqual(batched, perInst) {
					t.Errorf("stats diverge with batched synthesis:\n batched: %+v\nper-inst: %+v",
						batched, perInst)
				}
			})
		}
	}
}

// TestBatchedSynthesisEquivalenceWithAudit: the invariant auditor walks
// live pipeline state every N cycles; an audited batched run must match an
// audited one-at-a-time run (and the audits themselves must pass over
// state built from block-refilled uops).
func TestBatchedSynthesisEquivalenceWithAudit(t *testing.T) {
	b, err := trace.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	run := func(batched bool) Stats {
		c := newSynthCore(config.RAR, b, 42, batched)
		c.EnableAudit(1_000)
		st, err := c.RunWarm(5_000, 30_000)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	batched, perInst := run(true), run(false)
	if !reflect.DeepEqual(batched, perInst) {
		t.Errorf("audited stats diverge with batched synthesis:\n batched: %+v\nper-inst: %+v",
			batched, perInst)
	}
}

// TestBatchedSynthesisEquivalenceWithInjection: fault-injection outcomes
// depend on the exact machine state at exact cycles, so they are the
// sharpest detector of any batched-path divergence.
func TestBatchedSynthesisEquivalenceWithInjection(t *testing.T) {
	b, err := trace.ByName("libquantum")
	if err != nil {
		t.Fatal(err)
	}
	run := func(batched bool) ([]InjectSample, Stats) {
		c := newSynthCore(config.RAR, b, 42, batched)
		var samples []InjectSample
		for cyc := uint64(7_001); cyc < 120_000; cyc += 7_919 {
			samples = append(samples,
				InjectSample{Cycle: cyc, Structure: ace.ROB, Slot: int(cyc % 192)},
				InjectSample{Cycle: cyc + 13, Structure: ace.IQ, Slot: int(cyc % 92)},
				InjectSample{Cycle: cyc + 29, Structure: ace.LQ, Slot: int(cyc % 64)},
			)
		}
		c.InjectSamples(samples)
		st, err := c.RunWarm(5_000, 30_000)
		if err != nil {
			t.Fatal(err)
		}
		return samples, st
	}
	batchedS, batched := run(true)
	perInstS, perInst := run(false)
	if !reflect.DeepEqual(batched, perInst) {
		t.Errorf("injected stats diverge with batched synthesis:\n batched: %+v\nper-inst: %+v",
			batched, perInst)
	}
	if !reflect.DeepEqual(batchedS, perInstS) {
		for i := range batchedS {
			if batchedS[i] != perInstS[i] {
				t.Errorf("sample %d diverges: batched=%+v per-inst=%+v", i, batchedS[i], perInstS[i])
			}
		}
	}
}

// TestRandomProgramsBatchedEquivalence fuzzes the batched-synthesis
// contract: arbitrary valid benchmarks under every scheme must produce
// byte-identical Stats batched and one instruction at a time.
func TestRandomProgramsBatchedEquivalence(t *testing.T) {
	schemes := append(config.Schemes(), config.RunaheadVariants()...)
	f := func(raw []byte, pick uint8) bool {
		b := trace.RandomBenchmark(raw)
		s := schemes[int(pick)%len(schemes)]
		run := func(batched bool) (Stats, error) {
			return newSynthCore(s, b, 7, batched).RunWarm(1_000, 4_000)
		}
		batched, errB := run(true)
		perInst, errP := run(false)
		if (errB == nil) != (errP == nil) {
			t.Logf("%s raw=%v: error divergence: batched=%v per-inst=%v", s.Name, raw, errB, errP)
			return false
		}
		if errB != nil {
			return true // both deadlocked identically; nothing to compare
		}
		if !reflect.DeepEqual(batched, perInst) {
			t.Logf("%s raw=%v: stats diverge:\n batched: %+v\nper-inst: %+v", s.Name, raw, batched, perInst)
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 40}
	if testing.Short() {
		cfg.MaxCount = 8
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
