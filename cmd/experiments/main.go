// Command experiments regenerates the paper's evaluation: every figure of
// "Reliability-Aware Runahead" (HPCA 2022), as text tables and optionally
// CSV. See DESIGN.md §3 for the experiment index.
//
// All figures share one memoizing simulation engine, so each unique
// (core, scheme, benchmark, options) cell is simulated exactly once per
// invocation; with -cache, cells persist on disk and later invocations
// warm-start from them.
//
// Usage:
//
//	experiments                       # all figures, 1M instructions per cell
//	experiments -fig 9                # one figure
//	experiments -n 4000000 -csv results/
//	experiments -cache results/cache  # persist cells; re-runs warm-start
//	experiments -progress             # per-cell progress on stderr
//	experiments -cpuprofile cpu.pprof -memprofile mem.pprof
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"rarsim/internal/experiments"
	"rarsim/internal/sim"
)

func main() {
	var (
		fig      = flag.String("fig", "all", "figure to regenerate: 1,3,4,5,7,8,9,10,11, all, or an ablation (ablations, timer, mshr, scaling, seeds)")
		n        = flag.Uint64("n", 1_000_000, "committed instructions measured per simulation cell")
		warmup   = flag.Uint64("warmup", 0, "instructions committed before measurement (default n/5)")
		seed     = flag.Uint64("seed", 42, "workload generation seed")
		csv      = flag.String("csv", "", "directory to also write CSV tables into")
		par      = flag.Int("parallel", 0, "max concurrent simulations (0 = GOMAXPROCS)")
		cacheDir = flag.String("cache", "", "directory to persist simulated cells into (e.g. results/cache); re-runs warm-start from it")
		progress = flag.Bool("progress", false, "print per-cell progress to stderr")
		cpuProf  = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memProf  = flag.String("memprofile", "", "write a pprof heap profile, allocations included, to this file at exit")
	)
	flag.Parse()
	stopProfiles, err := startProfiles(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	// fail and the normal return each finish the profiles once (os.Exit
	// skips the deferred call), so a failed run still leaves readable
	// pprof files behind.
	fail := func(err error) {
		stopProfiles()
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	defer stopProfiles()

	if *warmup == 0 {
		*warmup = *n / 5
	}

	var eng *sim.Engine
	if *cacheDir != "" {
		if eng, err = sim.NewPersistentEngine(*cacheDir); err != nil {
			fail(err)
		}
	} else {
		eng = sim.NewEngine()
	}
	if *progress {
		eng.OnCell = func(p sim.CellProgress) {
			src := ""
			if p.Source != "sim" {
				src = " [" + p.Source + "]"
			}
			fmt.Fprintf(os.Stderr, "[%4d sim %4d hit] %-40s IPC %6.3f  MLP %6.2f  %s%s\n",
				p.Metrics.Simulated, p.Metrics.Hits, p.Key, p.IPC, p.MLP,
				p.Dur.Round(time.Millisecond), src)
		}
	}

	cfg := experiments.Config{
		Opt:    sim.Options{Instructions: *n, Warmup: *warmup, Seed: *seed, Parallelism: *par},
		Out:    os.Stdout,
		CSVDir: *csv,
		Engine: eng,
	}
	// Host-side wall-clock around the whole invocation: progress/summary
	// output only, never part of simulated state.
	start := time.Now() //rarlint:allow determinism host-side timing; reported to the user, never enters simulated state
	if err := experiments.ByName(*fig, cfg); err != nil {
		fail(err)
	}
	m := eng.Metrics()
	fmt.Printf("cells: %d unique (%d simulated, %d cache hits, %d from disk), sim time %s\n",
		m.Unique, m.Simulated, m.Hits, m.DiskHits, m.SimTime.Round(time.Millisecond))
	fmt.Printf("done in %s\n", time.Since(start).Round(time.Second)) //rarlint:allow determinism host-side timing; reported to the user, never enters simulated state
}

// startProfiles begins the requested pprof profiles; an empty path
// leaves that profile off. The returned stop function, called once, ends
// the CPU profile and writes the heap profile. Profiling observes the
// host process only: it never touches simulated state, cell keys or the
// rendered tables.
func startProfiles(cpuPath, memPath string) (stop func(), err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		if cpuFile, err = os.Create(cpuPath); err != nil {
			return nil, err
		}
		if err = pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, err
		}
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "experiments: cpuprofile:", err)
			}
		}
		if memPath != "" {
			if err := writeHeapProfile(memPath); err != nil {
				fmt.Fprintln(os.Stderr, "experiments: memprofile:", err)
			}
		}
	}, nil
}

// writeHeapProfile writes the heap profile, which carries the
// cumulative alloc_space/alloc_objects samples as well as live memory.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC() // settle the live-heap figures
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
