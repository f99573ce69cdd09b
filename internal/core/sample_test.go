package core

import (
	"testing"

	"rarsim/internal/config"
	"rarsim/internal/trace"
)

func TestFastForwardRequiresEmptyPipeline(t *testing.T) {
	b, _ := trace.ByName("libquantum")
	c := New(nil, config.Baseline(), config.OoO, b, 1)
	if _, err := c.Run(5_000); err != nil {
		t.Fatal(err)
	}
	// The pipeline stopped mid-flight; FastForward must refuse.
	if err := c.FastForward(100); err == nil {
		t.Error("FastForward must reject a non-empty pipeline")
	}
}

func TestFastForwardWarmsCaches(t *testing.T) {
	b, _ := trace.ByName("x264") // cache-resident working set
	cold := New(nil, config.Baseline(), config.OoO, b, 5)
	coldStats, err := cold.Run(30_000)
	if err != nil {
		t.Fatal(err)
	}

	warm := New(nil, config.Baseline(), config.OoO, b, 5)
	if err := warm.FastForward(100_000); err != nil {
		t.Fatal(err)
	}
	warmStats, err := warm.RunWarm(0, 30_000)
	if err != nil {
		t.Fatal(err)
	}
	if warmStats.IPC() <= coldStats.IPC() {
		t.Errorf("fast-forward warming should raise IPC: cold %.3f warm %.3f",
			coldStats.IPC(), warmStats.IPC())
	}
}

func TestRunSampled(t *testing.T) {
	b, _ := trace.ByName("gems")
	c := New(nil, config.Baseline(), config.RAR, b, 9)
	st, err := c.RunSampled(4, 50_000, 5_000, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	if st.Committed != 4*10_000 {
		t.Errorf("sampled committed = %d, want 40000", st.Committed)
	}
	if st.IPC() <= 0 || st.IPC() > 4 {
		t.Errorf("sampled IPC = %v", st.IPC())
	}
	if st.TotalABC == 0 {
		t.Error("sampled ABC empty")
	}

	// Determinism across identical sampled runs.
	c2 := New(nil, config.Baseline(), config.RAR, b, 9)
	st2, err := c2.RunSampled(4, 50_000, 5_000, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	if st.Cycles != st2.Cycles || st.TotalABC != st2.TotalABC {
		t.Error("sampled runs diverge")
	}
}

func TestRunSampledMatchesContiguousShape(t *testing.T) {
	// A sampled measurement of a homogeneous (single-kernel, phase-free)
	// workload must land near the contiguous measurement — benchmarks
	// with phase structure alias against the sampling period and are not
	// a fair comparison.
	b, _ := trace.ByName("x264")
	cont := New(nil, config.Baseline(), config.OoO, b, 3)
	contStats, err := cont.RunWarm(50_000, 50_000)
	if err != nil {
		t.Fatal(err)
	}
	samp := New(nil, config.Baseline(), config.OoO, b, 3)
	sampStats, err := samp.RunSampled(5, 20_000, 10_000, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	// Sampling is optimistically biased (each window starts from a
	// drained pipeline and freshly-touched caches — the classic
	// short-warmup artefact); the estimate must still land in the same
	// regime as the contiguous measurement.
	ratio := sampStats.IPC() / contStats.IPC()
	if ratio < 0.8 || ratio > 1.3 {
		t.Errorf("sampled IPC %v vs contiguous %v (ratio %v)",
			sampStats.IPC(), contStats.IPC(), ratio)
	}
}
