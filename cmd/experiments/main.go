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
package main

import (
	"flag"
	"fmt"
	"os"
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
	)
	flag.Parse()

	if *warmup == 0 {
		*warmup = *n / 5
	}

	var (
		eng *sim.Engine
		err error
	)
	if *cacheDir != "" {
		if eng, err = sim.NewPersistentEngine(*cacheDir); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
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
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	m := eng.Metrics()
	fmt.Printf("cells: %d unique (%d simulated, %d cache hits, %d from disk), sim time %s\n",
		m.Unique, m.Simulated, m.Hits, m.DiskHits, m.SimTime.Round(time.Millisecond))
	fmt.Printf("done in %s\n", time.Since(start).Round(time.Second)) //rarlint:allow determinism host-side timing; reported to the user, never enters simulated state
}
