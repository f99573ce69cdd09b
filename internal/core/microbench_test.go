package core

import (
	"testing"

	"rarsim/internal/config"
	"rarsim/internal/trace"
)

// BenchmarkSynthesisWindow compares the batched front-end (the generator's
// BlockSource face feeding the stream buffer a refill block at a time)
// against the scalar one-Next-per-instruction path on an identical warmed
// core — the core-loop companion to internal/trace's
// BenchmarkGeneratorNext/NextBlock pair. The two runs are byte-identical
// by the BlockSource contract; only the wall clock may differ.
func BenchmarkSynthesisWindow(b *testing.B) {
	bench, err := trace.ByName("x264")
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name string
		src  func() trace.Source
	}{
		{"batched", func() trace.Source { return trace.New(bench, 42) }},
		{"scalar", func() trace.Source { return trace.ScalarOnly(trace.New(bench, 42)) }},
	} {
		b.Run(mode.name, func(b *testing.B) {
			c := NewFromSource(config.Baseline(), config.OoO, bench.Name, mode.src())
			if _, err := c.Run(60_000); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.Run(10_000); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStageLoopWindow measures a warmed compute-bound window, where
// nearly every cycle runs the full stage set — the issue-wakeup ready
// list, the completion wheel's bucket drain and the commit loop dominate.
// It is the tracked microbenchmark for the seq-guarded stage-loop layout:
// regressions here (extra pointer chasing, lost bucket locality, a
// reintroduced per-cycle scan) show up directly as ns/op.
func BenchmarkStageLoopWindow(b *testing.B) {
	bench, err := trace.ByName("exchange2")
	if err != nil {
		b.Fatal(err)
	}
	c := New(nil, config.Baseline(), config.OoO, bench, 42)
	if _, err := c.Run(60_000); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Run(10_000); err != nil {
			b.Fatal(err)
		}
	}
}
