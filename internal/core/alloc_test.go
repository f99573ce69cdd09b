package core

import (
	"fmt"
	"testing"

	"rarsim/internal/config"
	"rarsim/internal/trace"
)

// TestZeroAllocSteadyState is the runtime half of the //rarlint:hot
// contract: after a warmup long enough to size every pool, queue and
// scratch buffer, a measured simulation window must perform zero heap
// allocations per cycle — in fact zero allocations total. hotalloc proves
// the property statically for the constructs it can see; this test catches
// what static analysis cannot (map growth, append capacity churn,
// escape-analysis regressions from compiler or refactor).
//
// Schemes and benchmarks are chosen to exercise every hot path: OoO for
// the plain pipeline, RAR for the runahead enter/exit/squash machinery,
// libquantum as the memory-heavy stream (deep MSHR/prefetch activity) and
// exchange2 as the compute-heavy control-flow stress (mispredict squash).
func TestZeroAllocSteadyState(t *testing.T) {
	cases := []struct {
		scheme config.Scheme
		bench  string
	}{
		{config.OoO, "libquantum"},
		{config.OoO, "exchange2"},
		{config.RAR, "libquantum"},
		{config.RAR, "exchange2"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(fmt.Sprintf("%s/%s", tc.scheme.Name, tc.bench), func(t *testing.T) {
			b, err := trace.ByName(tc.bench)
			if err != nil {
				t.Fatal(err)
			}
			c := New(nil, config.Baseline(), tc.scheme, b, 42)
			// Steady state: one long window sizes the uop pool, the
			// stream buffer, the front-end queue and every scratch
			// slice to their high-water marks.
			if _, err := c.Run(100_000); err != nil {
				t.Fatal(err)
			}
			// High-water growth decays rather than stopping at a sharp
			// boundary (a rare deep-runahead episode can still grow a
			// waiter list once). Each probe is itself more warmup, so
			// retry a few times: a genuine per-cycle allocation never
			// converges and still fails every probe.
			var allocs float64
			for attempt := 0; attempt < 6; attempt++ {
				allocs = testing.AllocsPerRun(5, func() {
					if _, err := c.Run(10_000); err != nil {
						t.Fatal(err)
					}
				})
				if allocs == 0 {
					break
				}
			}
			if allocs != 0 {
				t.Errorf("%s/%s: %.1f allocs per 10k-instruction window in steady state, want 0",
					tc.scheme.Name, tc.bench, allocs)
			}
		})
	}
}

// BenchmarkSteadyStateWindow measures a warmed 10k-instruction window —
// the companion benchmark for the zero-alloc assertion above (run with
// -benchmem to see the alloc rate directly).
func BenchmarkSteadyStateWindow(b *testing.B) {
	bench, err := trace.ByName("libquantum")
	if err != nil {
		b.Fatal(err)
	}
	c := New(nil, config.Baseline(), config.RAR, bench, 42)
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
