package core

import (
	"reflect"
	"testing"
	"testing/quick"

	"rarsim/internal/ace"
	"rarsim/internal/config"
	"rarsim/internal/trace"
)

// The batched-synthesis A/B harness: every test here runs the same
// workload twice — once with the generator's batch face visible (the
// stream buffer refills in blocks, wrong-path groups synthesise through
// WrongPathBlock) and once through trace.ScalarOnly, which hides it and
// forces the seed's one-instruction-at-a-time path — and requires the
// resulting Stats to be byte-identical.

// runBlockAB runs (scheme, bench) batched and scalar and returns both
// measured Stats.
func runBlockAB(t *testing.T, scheme config.Scheme, benchName string,
	warmup, measured uint64) (batched, scalar Stats) {
	t.Helper()
	run := func(blockFace bool) Stats {
		b, err := trace.ByName(benchName)
		if err != nil {
			t.Fatal(err)
		}
		var src trace.Source = trace.New(b, 42)
		if !blockFace {
			src = trace.ScalarOnly(src)
		}
		c := NewFromSource(config.Baseline(), scheme, b.Name, src)
		st, err := c.RunWarm(warmup, measured)
		if err != nil {
			t.Fatalf("%s/%s block=%v: %v", scheme.Name, benchName, blockFace, err)
		}
		return st
	}
	return run(true), run(false)
}

// TestBatchedSynthesisEquivalence: for every scheme, on a memory-bound and
// a compute-bound benchmark, block-refilled synthesis must produce Stats
// byte-identical to scalar synthesis. The runahead schemes exercise
// mid-block squash/refill: runahead entry and exit rewind the stream
// cursor into the middle of refilled blocks, and mispredicted hammocks
// fetch wrong-path groups straddling refill boundaries.
func TestBatchedSynthesisEquivalence(t *testing.T) {
	schemes := append(config.Schemes(), config.RunaheadVariants()...)
	for _, bn := range []string{"libquantum", "mcf", "exchange2"} {
		for _, s := range schemes {
			s, bn := s, bn
			t.Run(bn+"/"+s.Name, func(t *testing.T) {
				t.Parallel()
				batched, scalar := runBlockAB(t, s, bn, 5_000, 30_000)
				if !reflect.DeepEqual(batched, scalar) {
					t.Errorf("stats diverge with batched synthesis:\nbatched: %+v\n scalar: %+v",
						batched, scalar)
				}
			})
		}
	}
}

// TestBatchedSynthesisEquivalenceWithAudit: the invariant auditor walks
// live pipeline state every N cycles; an audited batched run must match an
// audited scalar run (and the audits themselves must pass over state built
// from block-refilled uops).
func TestBatchedSynthesisEquivalenceWithAudit(t *testing.T) {
	run := func(blockFace bool) Stats {
		b, err := trace.ByName("mcf")
		if err != nil {
			t.Fatal(err)
		}
		var src trace.Source = trace.New(b, 42)
		if !blockFace {
			src = trace.ScalarOnly(src)
		}
		c := NewFromSource(config.Baseline(), config.RAR, b.Name, src)
		c.EnableAudit(1_000)
		st, err := c.RunWarm(5_000, 30_000)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	batched, scalar := run(true), run(false)
	if !reflect.DeepEqual(batched, scalar) {
		t.Errorf("audited stats diverge with batched synthesis:\nbatched: %+v\n scalar: %+v",
			batched, scalar)
	}
}

// TestBatchedSynthesisEquivalenceWithInjection: fault-injection outcomes
// depend on the exact machine state at exact cycles, so they are the
// sharpest detector of any batched-path divergence.
func TestBatchedSynthesisEquivalenceWithInjection(t *testing.T) {
	run := func(blockFace bool) ([]InjectSample, Stats) {
		b, err := trace.ByName("libquantum")
		if err != nil {
			t.Fatal(err)
		}
		var src trace.Source = trace.New(b, 42)
		if !blockFace {
			src = trace.ScalarOnly(src)
		}
		c := NewFromSource(config.Baseline(), config.RAR, b.Name, src)
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
	scalarS, scalar := run(false)
	if !reflect.DeepEqual(batched, scalar) {
		t.Errorf("injected stats diverge with batched synthesis:\nbatched: %+v\n scalar: %+v",
			batched, scalar)
	}
	if !reflect.DeepEqual(batchedS, scalarS) {
		for i := range batchedS {
			if batchedS[i] != scalarS[i] {
				t.Errorf("sample %d diverges: batched=%+v scalar=%+v", i, batchedS[i], scalarS[i])
			}
		}
	}
}

// TestBatchedSynthesisHostileRefillSizes drives the stream buffer with
// degenerate refill block sizes — 1 (block face used scalar) and a block
// far larger than the front-end ring — and requires byte-identical Stats.
// Zero-length blocks cannot refill anything (they would never make
// progress), so the hostile-zero case lives in the trace package's block
// tests, where NextBlock(nil) is pinned as a state-preserving no-op.
func TestBatchedSynthesisHostileRefillSizes(t *testing.T) {
	b, err := trace.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	run := func(refill int) Stats {
		c := NewFromSource(config.Baseline(), config.RAR, b.Name, trace.New(b, 42))
		if refill > 0 {
			c.stream.refill = refill
		}
		st, err := c.RunWarm(2_000, 10_000)
		if err != nil {
			t.Fatalf("refill=%d: %v", refill, err)
		}
		return st
	}
	want := run(0) // default streamRefillBlock
	for _, refill := range []int{1, 3, 4096} {
		if got := run(refill); !reflect.DeepEqual(got, want) {
			t.Errorf("refill=%d stats diverge from default:\n got: %+v\nwant: %+v",
				refill, got, want)
		}
	}
}

// TestRandomProgramsBatchedEquivalence fuzzes the batched-synthesis
// contract: arbitrary valid benchmarks under the runahead schemes must
// produce byte-identical Stats batched and scalar.
func TestRandomProgramsBatchedEquivalence(t *testing.T) {
	schemes := append(config.Schemes(), config.RunaheadVariants()...)
	f := func(raw []byte, pick uint8) bool {
		b := trace.RandomBenchmark(raw)
		s := schemes[int(pick)%len(schemes)]
		run := func(blockFace bool) (Stats, error) {
			var src trace.Source = trace.New(b, 7)
			if !blockFace {
				src = trace.ScalarOnly(src)
			}
			c := NewFromSource(config.Baseline(), s, b.Name, src)
			return c.RunWarm(1_000, 4_000)
		}
		batched, errB := run(true)
		scalar, errS := run(false)
		if (errB == nil) != (errS == nil) {
			t.Logf("%s raw=%v: error divergence: batched=%v scalar=%v", s.Name, raw, errB, errS)
			return false
		}
		if errB != nil {
			return true // both deadlocked identically; nothing to compare
		}
		if !reflect.DeepEqual(batched, scalar) {
			t.Logf("%s raw=%v: stats diverge:\nbatched: %+v\n scalar: %+v", s.Name, raw, batched, scalar)
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
