package sim

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"rarsim/internal/config"
	"rarsim/internal/core"
	"rarsim/internal/trace"
)

func smallOpt() Options {
	return Options{Instructions: 20_000, Warmup: 5_000, Seed: 42, Parallelism: 4}
}

func twoBenches(t *testing.T) []trace.Benchmark {
	t.Helper()
	var out []trace.Benchmark
	for _, n := range []string{"libquantum", "fotonik"} {
		b, err := trace.ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b)
	}
	return out
}

func TestRunMatrixCompleteness(t *testing.T) {
	cores := []config.Core{config.Baseline()}
	schemes := []config.Scheme{config.OoO, config.RAR}
	rs, err := RunMatrix(cores, schemes, twoBenches(t), smallOpt())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range schemes {
		for _, b := range twoBenches(t) {
			st, ok := rs.Stats("baseline", s.Name, b.Name)
			if !ok {
				t.Fatalf("missing cell %s/%s", s.Name, b.Name)
			}
			if st.Committed != 20_000 {
				t.Errorf("%s/%s committed %d", s.Name, b.Name, st.Committed)
			}
		}
	}
}

func TestMatrixMatchesSerialRuns(t *testing.T) {
	cores := []config.Core{config.Baseline()}
	schemes := []config.Scheme{config.OoO, config.PRE}
	benches := twoBenches(t)
	opt := smallOpt()
	rs, err := RunMatrix(cores, schemes, benches, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range schemes {
		for _, b := range benches {
			serial, err := Run(config.Baseline(), s, b, opt)
			if err != nil {
				t.Fatal(err)
			}
			parallel := rs.MustStats("baseline", s.Name, b.Name)
			if serial.Cycles != parallel.Cycles || serial.TotalABC != parallel.TotalABC {
				t.Errorf("%s/%s: parallel run differs from serial", s.Name, b.Name)
			}
		}
	}
}

func TestNormalisedMetrics(t *testing.T) {
	cores := []config.Core{config.Baseline()}
	schemes := []config.Scheme{config.OoO, config.RAR}
	benches := twoBenches(t)
	rs, err := RunMatrix(cores, schemes, benches, smallOpt())
	if err != nil {
		t.Fatal(err)
	}
	// The baseline normalised against itself is exactly 1.0 everywhere.
	for _, b := range BenchNames(benches) {
		if m := rs.MTTF("baseline", "OoO", b); math.Abs(m-1) > 1e-12 {
			t.Errorf("%s: baseline MTTF = %v", b, m)
		}
		if a := rs.ABCNorm("baseline", "OoO", b); math.Abs(a-1) > 1e-12 {
			t.Errorf("%s: baseline ABC = %v", b, a)
		}
		if i := rs.IPCNorm("baseline", "OoO", b); math.Abs(i-1) > 1e-12 {
			t.Errorf("%s: baseline IPC = %v", b, i)
		}
	}
	names := BenchNames(benches)
	if rs.MeanMTTF("baseline", "RAR", names) <= 1 {
		t.Error("RAR mean MTTF must beat baseline on memory-intensive benchmarks")
	}
	if rs.MeanABCNorm("baseline", "RAR", names) >= 1 {
		t.Error("RAR mean ABC must be below baseline")
	}
	if rs.MeanMLP("baseline", "OoO", names) <= 0 {
		t.Error("MLP must be positive")
	}
}

func TestMustStatsPanics(t *testing.T) {
	rs := &ResultSet{cells: nil}
	defer func() {
		if recover() == nil {
			t.Error("MustStats on a missing cell must panic")
		}
	}()
	rs.MustStats("baseline", "OoO", "nope")
}

func TestBenchNames(t *testing.T) {
	names := BenchNames(twoBenches(t))
	if len(names) != 2 || names[0] != "libquantum" || names[1] != "fotonik" {
		t.Errorf("names = %v", names)
	}
}

// TestConcurrentMatricesShareFreeCores runs two engines' matrices at once,
// so their workers take finished cores from, and return them to, the one
// shared free list concurrently. Under -race it checks the list's
// locking; in any mode every cell must equal the same cell simulated on a
// fresh core.
func TestConcurrentMatricesShareFreeCores(t *testing.T) {
	scaled := config.ScaledCores()
	cores := []config.Core{scaled[0], scaled[3]}
	schemes := []config.Scheme{config.OoO, config.RAR}
	benches := twoBenches(t)
	opt := Options{Instructions: 4_000, Warmup: 1_000, Seed: 42, Parallelism: 3}

	var wg sync.WaitGroup
	sets := make([]*ResultSet, 2)
	errs := make([]error, 2)
	for i := range sets {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sets[i], errs[i] = NewEngine().RunMatrix(cores, schemes, benches, opt)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("matrix %d: %v", i, err)
		}
	}
	for _, cfg := range cores {
		for _, s := range schemes {
			for _, b := range benches {
				fresh, err := core.New(nil, cfg, s, b, opt.Seed).RunWarm(opt.Warmup, opt.Instructions)
				if err != nil {
					t.Fatal(err)
				}
				want := fmt.Sprintf("%#v", fresh)
				for i, rs := range sets {
					if got := fmt.Sprintf("%#v", rs.MustStats(cfg.Name, s.Name, b.Name)); got != want {
						t.Errorf("matrix %d, %s/%s/%s: recycled cell differs from a fresh core", i, cfg.Name, s.Name, b.Name)
					}
				}
			}
		}
	}
}
