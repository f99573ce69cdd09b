// Package sim drives experiment matrices: it runs (core config × scheme ×
// benchmark) cells in parallel, collects the per-run statistics, and
// derives the paper's normalised metrics (MTTF, ABC and IPC relative to
// the baseline OoO core on the same benchmark and configuration).
package sim

import (
	"fmt"
	"runtime"
	"sync"

	"rarsim/internal/ace"
	"rarsim/internal/config"
	"rarsim/internal/core"
	"rarsim/internal/metrics"
	"rarsim/internal/trace"
)

// Options controls a matrix run.
type Options struct {
	// Instructions is the number of committed instructions measured per
	// cell, after Warmup.
	Instructions uint64
	// Warmup is the number of committed instructions run before
	// measurement starts (caches and predictors stay trained; counters
	// reset) — the moral equivalent of the paper's SimPoint warmup.
	Warmup uint64
	// Seed drives workload generation; the same seed reproduces the run.
	Seed uint64
	// Parallelism caps concurrent simulations; <=0 uses GOMAXPROCS.
	Parallelism int
}

// DefaultOptions returns a 1M-instruction measurement after a 200k
// warmup — small enough for interactive runs, long enough for steady
// state.
func DefaultOptions() Options {
	return Options{Instructions: 1_000_000, Warmup: 200_000, Seed: 42}
}

// Key identifies one cell of a result set.
type Key struct {
	Core   string
	Scheme string
	Bench  string
}

// ResultSet holds the statistics of a completed matrix.
type ResultSet struct {
	cells map[Key]core.Stats
}

// Run simulates one cell and returns its statistics. The cell is built
// into a finished core from the free list when one is there, and its
// core goes back on the list afterwards (see freeCores).
func Run(cfg config.Core, scheme config.Scheme, bench trace.Benchmark, opt Options) (core.Stats, error) {
	c := core.New(freeCores.get(), cfg, scheme, bench, opt.Seed)
	st, err := c.RunWarm(opt.Warmup, opt.Instructions)
	freeCores.put(c)
	return st, err
}

// freeCores holds finished cores for Run to build the next cells into, so
// that a sweep of short cells reuses a few cores' worth of arrays instead
// of handing over a megabyte per cell to the garbage collector. Cores are
// only created while the list is empty, so there are never more than the
// peak number of concurrently running cells; the GOMAXPROCS bound caps
// how many of them stay alive idle. A recycled core simulates exactly as
// a fresh one (core.NewWithHierarchy), so the list never changes results.
// It is not a sync.Pool because a pool drops its contents at garbage
// collections, which is exactly what the list exists to avoid.
var freeCores coreList

// coreList is a mutex-guarded stack of finished cores.
type coreList struct {
	mu    sync.Mutex
	cores []*core.Core //rarlint:guardedby mu
}

// get pops a finished core, or returns nil (build fresh) when none is idle.
func (l *coreList) get() *core.Core {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.cores)
	if n == 0 {
		return nil
	}
	c := l.cores[n-1]
	l.cores[n-1] = nil
	l.cores = l.cores[:n-1]
	return c
}

// put returns a finished core to the list, or drops it to the garbage
// collector when GOMAXPROCS cores are already idle.
func (l *coreList) put(c *core.Core) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.cores) < runtime.GOMAXPROCS(0) {
		l.cores = append(l.cores, c)
	}
}

// RunMatrix simulates every (core, scheme, benchmark) combination in
// parallel and returns the result set. Identical cells within the matrix
// are simulated once. Cells are only stored on success; an error aborts
// the matrix and the returned error names every cell that failed. To
// memoize cells *across* matrices, share one Engine and call its
// RunMatrix method instead.
func RunMatrix(cores []config.Core, schemes []config.Scheme, benches []trace.Benchmark, opt Options) (*ResultSet, error) {
	return NewEngine().RunMatrix(cores, schemes, benches, opt)
}

// Stats returns the raw statistics of one cell.
func (rs *ResultSet) Stats(coreName, scheme, bench string) (core.Stats, bool) {
	st, ok := rs.cells[Key{coreName, scheme, bench}]
	return st, ok
}

// MustStats is Stats for cells known to exist; it panics otherwise (an
// experiment-definition bug).
func (rs *ResultSet) MustStats(coreName, scheme, bench string) core.Stats {
	st, ok := rs.Stats(coreName, scheme, bench)
	if !ok {
		panic(fmt.Sprintf("sim: missing cell %s/%s/%s", coreName, scheme, bench))
	}
	return st
}

// baseline returns the OoO cell for the benchmark on the same core.
func (rs *ResultSet) baseline(coreName, bench string) core.Stats {
	return rs.MustStats(coreName, config.OoO.Name, bench)
}

// MTTF returns the scheme's mean-time-to-failure normalised to the OoO
// baseline on the same core and benchmark (higher is better).
func (rs *ResultSet) MTTF(coreName, scheme, bench string) float64 {
	b := rs.baseline(coreName, bench)
	s := rs.MustStats(coreName, scheme, bench)
	return ace.MTTFRel(b.TotalABC, b.Cycles, s.TotalABC, s.Cycles)
}

// ABCNorm returns the scheme's ACE bit count as a fraction of the OoO
// baseline's for the same fixed unit of work (lower is better).
func (rs *ResultSet) ABCNorm(coreName, scheme, bench string) float64 {
	b := rs.baseline(coreName, bench)
	s := rs.MustStats(coreName, scheme, bench)
	return metrics.Ratio(float64(s.TotalABC), float64(b.TotalABC))
}

// IPCNorm returns the scheme's IPC relative to the OoO baseline
// (higher is better).
func (rs *ResultSet) IPCNorm(coreName, scheme, bench string) float64 {
	b := rs.baseline(coreName, bench)
	s := rs.MustStats(coreName, scheme, bench)
	return metrics.Ratio(s.IPC(), b.IPC())
}

// MLP returns the cell's memory-level parallelism.
func (rs *ResultSet) MLP(coreName, scheme, bench string) float64 {
	return rs.MustStats(coreName, scheme, bench).Mem.MLP()
}

// Aggregates over a benchmark list, following the paper's methodology:
// geomean for MTTF, arithmetic mean for ABC and MLP, harmonic mean for
// normalised IPC.

// MeanMTTF returns the geometric-mean normalised MTTF over benches.
func (rs *ResultSet) MeanMTTF(coreName, scheme string, benches []string) float64 {
	return metrics.GeoMean(rs.collect(rs.MTTF, coreName, scheme, benches))
}

// MeanABCNorm returns the arithmetic-mean normalised ABC over benches.
func (rs *ResultSet) MeanABCNorm(coreName, scheme string, benches []string) float64 {
	return metrics.ArithMean(rs.collect(rs.ABCNorm, coreName, scheme, benches))
}

// MeanIPCNorm returns the harmonic-mean normalised IPC over benches.
func (rs *ResultSet) MeanIPCNorm(coreName, scheme string, benches []string) float64 {
	return metrics.HarmMean(rs.collect(rs.IPCNorm, coreName, scheme, benches))
}

// MeanMLP returns the arithmetic-mean MLP over benches.
func (rs *ResultSet) MeanMLP(coreName, scheme string, benches []string) float64 {
	return metrics.ArithMean(rs.collect(rs.MLP, coreName, scheme, benches))
}

func (rs *ResultSet) collect(f func(string, string, string) float64, coreName, scheme string, benches []string) []float64 {
	out := make([]float64, 0, len(benches))
	for _, b := range benches {
		out = append(out, f(coreName, scheme, b))
	}
	return out
}

// BenchNames extracts the names of a benchmark slice.
func BenchNames(bs []trace.Benchmark) []string {
	out := make([]string, len(bs))
	for i, b := range bs {
		out[i] = b.Name
	}
	return out
}
