// Command rarsim runs ad-hoc simulations: one benchmark (or the whole
// suite) under one scheme (or several), printing the paper's metrics.
//
// Examples:
//
//	rarsim -bench mcf -scheme RAR -n 2000000
//	rarsim -suite mem -schemes OoO,FLUSH,PRE,RAR-LATE,RAR
//	rarsim -bench lbm -scheme PRE -prefetch +L3
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"rarsim"
)

func main() {
	var (
		benchName = flag.String("bench", "", "single benchmark to run (see -list)")
		suite     = flag.String("suite", "", "benchmark suite: mem, compute, or all")
		schemes   = flag.String("schemes", "OoO,FLUSH,PRE,RAR-LATE,RAR", "comma-separated schemes")
		n         = flag.Uint64("n", 1_000_000, "committed instructions measured per run")
		warmup    = flag.Uint64("warmup", 0, "instructions committed before measurement (default n/5)")
		seed      = flag.Uint64("seed", 42, "workload generation seed")
		coreName  = flag.String("core", "baseline", "core config: baseline or core-1..core-4")
		prefetch  = flag.String("prefetch", "off", "hardware prefetcher: off, +L3, +ALL")
		list      = flag.Bool("list", false, "list benchmarks and schemes, then exit")
		timeline  = flag.Uint64("timeline", 0, "print an AVF-over-time series with this window size in cycles")
		jsonOut   = flag.Bool("json", false, "emit one JSON object per run instead of the table")
		cacheDir  = flag.String("cache", "", "directory to persist simulated cells into; repeated runs of the same cell warm-start from it")
	)
	flag.Parse()

	if *list {
		fmt.Println("benchmarks:", strings.Join(rarsim.BenchmarkNames(), " "))
		var ss []string
		for _, s := range rarsim.RunaheadVariants() {
			ss = append(ss, s.Name)
		}
		fmt.Println("schemes: OoO", strings.Join(ss, " "))
		return
	}

	cfg, err := pickCore(*coreName)
	check(err)
	switch *prefetch {
	case "off", "":
	case "+L3":
		cfg = cfg.WithPrefetch(rarsim.PrefetchL3)
	case "+ALL":
		cfg = cfg.WithPrefetch(rarsim.PrefetchAll)
	default:
		check(fmt.Errorf("unknown prefetch mode %q", *prefetch))
	}

	var benches []rarsim.Benchmark
	switch {
	case *benchName != "":
		b, err := rarsim.BenchmarkByName(*benchName)
		check(err)
		benches = []rarsim.Benchmark{b}
	case *suite == "mem" || *suite == "":
		benches = rarsim.MemoryIntensiveBenchmarks()
	case *suite == "compute":
		benches = rarsim.ComputeIntensiveBenchmarks()
	case *suite == "all":
		benches = rarsim.Benchmarks()
	default:
		check(fmt.Errorf("unknown suite %q", *suite))
	}

	var schemeList []rarsim.Scheme
	for _, name := range strings.Split(*schemes, ",") {
		s, err := rarsim.SchemeByName(strings.TrimSpace(name))
		check(err)
		schemeList = append(schemeList, s)
	}

	if *warmup == 0 {
		*warmup = *n / 5
	}
	opt := rarsim.Options{Instructions: *n, Warmup: *warmup, Seed: *seed}
	if *timeline > 0 {
		runTimeline(cfg, schemeList, benches, opt, *timeline)
		return
	}
	if !*jsonOut {
		fmt.Printf("%-12s %-10s %8s %8s %8s %8s %7s %9s %12s %7s %8s\n",
			"bench", "scheme", "IPC", "MPKI", "MLP", "mispred", "RA/flsh", "AVF", "ABC", "ld/st", "sim-ms")
	}
	eng := rarsim.NewEngine()
	if *cacheDir != "" {
		eng, err = rarsim.NewPersistentEngine(*cacheDir)
		check(err)
	}
	enc := json.NewEncoder(os.Stdout)
	for _, b := range benches {
		for _, s := range schemeList {
			st, err := eng.Run(cfg, s, b, opt)
			check(err)
			if *jsonOut {
				check(enc.Encode(st))
				continue
			}
			events := st.RunaheadEntries + st.Flushes
			// Simulated wall-clock time from the core frequency: the one
			// place cycle counts become seconds (absolute FIT/MTTF scale).
			simMS := float64(st.Cycles) / (cfg.FrequencyGHz * 1e6)
			ldst := float64(st.CommittedLoads) / float64(max(st.CommittedStores, 1))
			fmt.Printf("%-12s %-10s %8.3f %8.2f %8.2f %8.4f %7d %9.5f %12d %7.2f %8.2f\n",
				b.Name, s.Name, st.IPC(), st.MPKI(), st.Mem.MLP(),
				st.MispredictRate(), events, st.AVF(), st.TotalABC, ldst, simMS)
		}
	}
}

// runTimeline prints the AVF phase series of each (scheme, benchmark)
// cell: one row per window of the given cycle width.
func runTimeline(cfg rarsim.CoreConfig, schemes []rarsim.Scheme, benches []rarsim.Benchmark, opt rarsim.Options, window uint64) {
	for _, b := range benches {
		for _, s := range schemes {
			series, bits, err := rarsim.RunTimeline(cfg, s, b.Name, opt, window)
			check(err)
			fmt.Printf("# %s / %s (window %d cycles)\n", b.Name, s.Name, window)
			for _, w := range series {
				avf := rarsim.WindowAVF(w, bits, window)
				fmt.Printf("%12d %8.4f %s\n", w.StartCycle, avf, avfBar(avf))
			}
		}
	}
}

func avfBar(avf float64) string {
	n := int(avf * 80)
	if n > 78 {
		n = 78
	}
	out := make([]byte, n)
	for i := range out {
		out[i] = '#'
	}
	return string(out)
}

func pickCore(name string) (rarsim.CoreConfig, error) {
	if name == "baseline" {
		return rarsim.BaselineConfig(), nil
	}
	for _, c := range rarsim.ScaledConfigs() {
		if c.Name == name {
			return c, nil
		}
	}
	return rarsim.CoreConfig{}, fmt.Errorf("unknown core %q", name)
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "rarsim:", err)
		os.Exit(1)
	}
}
