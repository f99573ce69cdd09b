package core

import (
	"testing"

	"rarsim/internal/config"
	"rarsim/internal/trace"
)

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
