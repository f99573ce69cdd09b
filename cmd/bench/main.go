// Command bench is the tracked performance harness: it measures simulator
// throughput (simulated instructions per wall-clock second) per scheme on
// memory-intensive and compute-intensive benchmarks and per multicore
// chip, plus end-to-end matrix throughput (cells per second), and writes
// the results as BENCH_core.json. Committing that file alongside
// performance-relevant changes gives the repo a perf history the same way
// results/*.csv give it a results history.
//
// Every cell is also re-run through the scalar synthesis path and the two
// runs' statistics are compared — so `make bench` doubles as an end-to-end
// check of the batched-synthesis equivalence contract on real workloads.
//
// Usage:
//
//	go run ./cmd/bench                  # full measurement, writes BENCH_core.json
//	go run ./cmd/bench -quick -o -      # CI smoke: 1 iteration, tiny runs, stdout
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"time"

	"rarsim/internal/config"
	"rarsim/internal/core"
	"rarsim/internal/multicore"
	"rarsim/internal/sim"
	"rarsim/internal/trace"
)

// schemaVersion identifies the BENCH_core.json layout; bump on any field
// change so downstream tooling fails loudly instead of misreading.
// v2: added the multicore chip cells. v3: dropped the stall fast-forward
// on/off fields (the simulator has one cycle loop).
const schemaVersion = 3

// Report is the persisted benchmark report. The harness re-parses its own
// output with DisallowUnknownFields before writing, so the file always
// matches this schema exactly.
type Report struct {
	SchemaVersion int    `json:"schemaVersion"`
	GoVersion     string `json:"goVersion"`
	Instructions  uint64 `json:"instructions"`
	Warmup        uint64 `json:"warmup"`
	Seed          uint64 `json:"seed"`
	Iterations    int    `json:"iterations"`

	Cells      []Cell          `json:"cells"`
	Aggregates Aggregates      `json:"aggregates"`
	Matrix     Matrix          `json:"matrix"`
	Multicore  []MulticoreCell `json:"multicore"`
}

// Cell is one (scheme, benchmark) throughput measurement.
type Cell struct {
	Scheme       string `json:"scheme"`
	Bench        string `json:"bench"`
	MemIntensive bool   `json:"memIntensive"`
	// SimInstsPerSec is simulated instructions per wall-clock second.
	SimInstsPerSec float64 `json:"simInstsPerSec"`
	IPC            float64 `json:"ipc"`
}

// Aggregates summarises throughput per benchmark class.
type Aggregates struct {
	MemSimInstsPerSec     float64 `json:"memSimInstsPerSec"`
	ComputeSimInstsPerSec float64 `json:"computeSimInstsPerSec"`
}

// MulticoreCell is one chip-level throughput measurement: a multicore
// system running one benchmark and scheme per core. Throughput counts
// committed instructions summed over all cores.
type MulticoreCell struct {
	Chip    string   `json:"chip"`
	Cores   int      `json:"cores"`
	Benches []string `json:"benches"`
	Schemes []string `json:"schemes"`
	// SimInstsPerSec is chip-wide simulated instructions per wall-clock
	// second.
	SimInstsPerSec float64 `json:"simInstsPerSec"`
}

// Matrix is the end-to-end experiment-matrix throughput measurement.
type Matrix struct {
	Cells        int     `json:"cells"`
	Instructions uint64  `json:"instructions"`
	Seconds      float64 `json:"seconds"`
	CellsPerSec  float64 `json:"cellsPerSec"`
}

func main() {
	var (
		out   = flag.String("o", "BENCH_core.json", "output path ('-' = stdout)")
		n     = flag.Uint64("n", 200_000, "committed instructions measured per cell")
		wu    = flag.Uint64("warmup", 40_000, "warmup instructions per cell")
		iters = flag.Int("iters", 3, "measurement iterations per cell (best is kept)")
		quick = flag.Bool("quick", false, "CI smoke mode: 1 iteration, tiny runs")
	)
	flag.Parse()
	if *quick {
		*n, *wu, *iters = 20_000, 4_000, 1
	}

	rep, err := measure(*n, *wu, *iters)
	if err != nil {
		fail(err)
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fail(err)
	}
	data = append(data, '\n')
	// Self-validation: the bytes about to be written must round-trip
	// through the schema with no unknown fields and the current version.
	if err := Validate(data); err != nil {
		fail(fmt.Errorf("generated report fails its own schema: %w", err))
	}
	if *out == "-" {
		if _, err := os.Stdout.Write(data); err != nil {
			fail(err)
		}
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fail(err)
	}
	fmt.Fprintf(os.Stderr, "bench: wrote %s (mem %.0f insts/s; chip %s %.0f insts/s; matrix %.1f cells/s)\n",
		*out, rep.Aggregates.MemSimInstsPerSec,
		rep.Multicore[0].Chip, rep.Multicore[0].SimInstsPerSec, rep.Matrix.CellsPerSec)
}

// Validate parses a BENCH_core.json document strictly: unknown fields,
// trailing data or a version mismatch are errors. Shared by the harness's
// self-check and the CI smoke run.
func Validate(data []byte) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var r Report
	if err := dec.Decode(&r); err != nil {
		return err
	}
	if dec.More() {
		return fmt.Errorf("trailing data after report object")
	}
	if r.SchemaVersion != schemaVersion {
		return fmt.Errorf("schemaVersion %d, want %d", r.SchemaVersion, schemaVersion)
	}
	if len(r.Cells) == 0 {
		return fmt.Errorf("report has no cells")
	}
	if len(r.Multicore) == 0 {
		return fmt.Errorf("report has no multicore cells")
	}
	return nil
}

// benchCells is the measured cell list: every scheme family on one
// representative streaming benchmark, one pointer-chasing benchmark, and
// one compute-bound benchmark.
func benchCells() []struct {
	scheme config.Scheme
	bench  string
} {
	schemes := []config.Scheme{config.OoO, config.FLUSH, config.TR, config.PRE, config.RARLate, config.RAR}
	var out []struct {
		scheme config.Scheme
		bench  string
	}
	for _, b := range []string{"libquantum", "mcf", "exchange2", "x264"} {
		for _, s := range schemes {
			out = append(out, struct {
				scheme config.Scheme
				bench  string
			}{s, b})
		}
	}
	return out
}

func measure(n, warmup uint64, iters int) (*Report, error) {
	rep := &Report{
		SchemaVersion: schemaVersion,
		GoVersion:     goVersion(),
		Instructions:  n,
		Warmup:        warmup,
		Seed:          42,
		Iterations:    iters,
	}
	cfg := config.Baseline()
	var memDur, compDur time.Duration
	var memInsts, compInsts uint64

	for _, c := range benchCells() {
		bench, err := trace.ByName(c.bench)
		if err != nil {
			return nil, err
		}
		opt := sim.Options{Instructions: n, Warmup: warmup, Seed: 42}

		dur, stats, err := timeCell(cfg, c.scheme, bench, opt, iters)
		if err != nil {
			return nil, err
		}
		// Batched-synthesis contract: the same cell driven through the
		// scalar-only source face must be byte-identical (the block path
		// is what the timed runs used — Generator implements BlockSource).
		scalarStats, err := runScalar(cfg, c.scheme, bench, opt)
		if err != nil {
			return nil, err
		}
		if !reflect.DeepEqual(stats, scalarStats) {
			return nil, fmt.Errorf("%s/%s: batched synthesis changed the results:\n batched: %+v\n  scalar: %+v",
				c.scheme.Name, c.bench, stats, scalarStats)
		}

		total := warmup + n // throughput covers every simulated instruction
		rep.Cells = append(rep.Cells, Cell{
			Scheme:         c.scheme.Name,
			Bench:          c.bench,
			MemIntensive:   bench.MemoryIntensive,
			SimInstsPerSec: rate(total, dur),
			IPC:            stats.IPC(),
		})
		if bench.MemoryIntensive {
			memDur += dur
			memInsts += total
		} else {
			compDur += dur
			compInsts += total
		}
	}

	rep.Aggregates = Aggregates{
		MemSimInstsPerSec:     rate(memInsts, memDur),
		ComputeSimInstsPerSec: rate(compInsts, compDur),
	}

	m, err := measureMatrix(n/4, warmup/4)
	if err != nil {
		return nil, err
	}
	rep.Matrix = *m

	for _, chip := range benchChips() {
		cell, err := timeChip(chip, n, iters)
		if err != nil {
			return nil, err
		}
		rep.Multicore = append(rep.Multicore, *cell)
	}
	return rep, nil
}

// chipSpec names a multicore configuration: benches[i] runs on core i
// under schemes[i%len(schemes)].
type chipSpec struct {
	name    string
	benches []string
	schemes []config.Scheme
}

// benchChips is the measured chip list: the memory-bound mix (four
// memory-intensive benchmarks on baseline OoO cores), the same mix on
// all-RAR cores, and a heterogeneous scheme×bench chip covering the mixed
// deployment.
func benchChips() []chipSpec {
	memMix := []string{"mcf", "libquantum", "soplex", "astar"}
	return []chipSpec{
		{"mem-ooo", memMix, []config.Scheme{config.OoO}},
		{"mem-rar", memMix, []config.Scheme{config.RAR}},
		{"mixed", []string{"libquantum", "exchange2", "mcf", "x264"},
			[]config.Scheme{config.RAR, config.OoO}},
	}
}

// timeChip measures one chip, keeping the best of iters runs.
func timeChip(spec chipSpec, n uint64, iters int) (*MulticoreCell, error) {
	cfg := config.Baseline()
	var loads []multicore.Workload
	var schemeNames []string
	for i, name := range spec.benches {
		b, err := trace.ByName(name)
		if err != nil {
			return nil, err
		}
		s := spec.schemes[i%len(spec.schemes)]
		loads = append(loads, multicore.Workload{Bench: b, Scheme: s})
		schemeNames = append(schemeNames, s.Name)
	}
	var best time.Duration
	for i := 0; i < iters; i++ {
		sys, err := multicore.New(cfg, loads, 42)
		if err != nil {
			return nil, err
		}
		start := time.Now() //rarlint:allow determinism wall-clock measurement is this harness's entire purpose; never enters simulated state
		_, err = sys.Run(n)
		dur := time.Since(start) //rarlint:allow determinism wall-clock measurement is this harness's entire purpose; never enters simulated state
		if err != nil {
			return nil, fmt.Errorf("chip %s: %w", spec.name, err)
		}
		if i == 0 || dur < best {
			best = dur
		}
	}
	return &MulticoreCell{
		Chip:           spec.name,
		Cores:          len(loads),
		Benches:        spec.benches,
		Schemes:        schemeNames,
		SimInstsPerSec: rate(n*uint64(len(loads)), best),
	}, nil
}

// runScalar runs one cell once with the generator's BlockSource face
// hidden, forcing the scalar Next/WrongPath synthesis path end to end. Its
// wall clock never enters the report — it exists purely to cross-check the
// batched-synthesis equivalence contract on the real measured workloads.
func runScalar(cfg config.Core, scheme config.Scheme, bench trace.Benchmark, opt sim.Options) (core.Stats, error) {
	c := core.NewFromSource(cfg, scheme, bench.Name, trace.ScalarOnly(trace.New(bench, opt.Seed)))
	st, err := c.RunWarm(opt.Warmup, opt.Instructions)
	if err != nil {
		return core.Stats{}, fmt.Errorf("%s/%s scalar: %w", scheme.Name, bench.Name, err)
	}
	return st, nil
}

// timeCell runs one cell iters times and returns the best
// wall-clock duration plus the (deterministic) statistics.
func timeCell(cfg config.Core, scheme config.Scheme, bench trace.Benchmark, opt sim.Options, iters int) (time.Duration, core.Stats, error) {
	var best time.Duration
	var stats core.Stats
	for i := 0; i < iters; i++ {
		start := time.Now() //rarlint:allow determinism wall-clock measurement is this harness's entire purpose; never enters simulated state
		st, err := sim.Run(cfg, scheme, bench, opt)
		dur := time.Since(start) //rarlint:allow determinism wall-clock measurement is this harness's entire purpose; never enters simulated state
		if err != nil {
			return 0, core.Stats{}, fmt.Errorf("%s/%s: %w", scheme.Name, bench.Name, err)
		}
		if i == 0 || dur < best {
			best = dur
		}
		stats = st
	}
	return best, stats, nil
}

// measureMatrix times a small end-to-end experiment matrix — memoizing
// engine, parallel workers, the code path cmd/experiments drives — and
// reports cells per second.
func measureMatrix(n, warmup uint64) (*Matrix, error) {
	cores := []config.Core{config.Baseline()}
	schemes := config.Schemes()
	benches := trace.MemoryIntensive()
	opt := sim.Options{Instructions: n, Warmup: warmup, Seed: 42}
	start := time.Now() //rarlint:allow determinism wall-clock measurement is this harness's entire purpose; never enters simulated state
	if _, err := sim.RunMatrix(cores, schemes, benches, opt); err != nil {
		return nil, err
	}
	dur := time.Since(start) //rarlint:allow determinism wall-clock measurement is this harness's entire purpose; never enters simulated state
	cells := len(cores) * len(schemes) * len(benches)
	return &Matrix{
		Cells:        cells,
		Instructions: n,
		Seconds:      dur.Seconds(),
		CellsPerSec:  float64(cells) / dur.Seconds(),
	}, nil
}

func rate(insts uint64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(insts) / d.Seconds()
}

func goVersion() string {
	return runtime.Version()
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}
