// Command benchdiff compares two BENCH_core.json reports cell by cell and
// fails when throughput regressed beyond a tolerance. It is the perf
// tripwire that rides the per-PR snapshots under results/bench/: CI (or a
// reviewer) runs
//
//	go run ./cmd/benchdiff results/bench/PR12.json BENCH_core.json
//
// and gets a table of per-cell deltas plus a non-zero exit if any cell —
// single-core, multicore chip, or the matrix throughput — lost more than
// -tolerance (default 10%) of its simulated-instructions-per-second.
//
// Wall-clock benchmarks on shared machines are noisy; 10% is deliberately
// loose enough that honest noise passes and a real regression (a hot-path
// allocation, a slower stage loop) still trips. Cells present on
// only one side are reported but never fail the diff, so adding or
// retiring benchmarks doesn't require a flag day.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
)

// Exit codes, mirroring rarlint's contract: 0 clean, 1 regression,
// 2 usage or load error.
const (
	exitClean     = 0
	exitRegressed = 1
	exitError     = 2
)

// report mirrors the subset of the BENCH_core.json schema the diff needs;
// parsing is deliberately loose (no DisallowUnknownFields) so benchdiff
// keeps working across additive schema growth.
type report struct {
	SchemaVersion int `json:"schemaVersion"`
	Cells         []struct {
		Scheme         string  `json:"scheme"`
		Bench          string  `json:"bench"`
		SimInstsPerSec float64 `json:"simInstsPerSec"`
	} `json:"cells"`
	Matrix struct {
		CellsPerSec float64 `json:"cellsPerSec"`
	} `json:"matrix"`
	Multicore []struct {
		Chip           string  `json:"chip"`
		SimInstsPerSec float64 `json:"simInstsPerSec"`
	} `json:"multicore"`
}

func load(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(r.Cells) == 0 {
		return nil, fmt.Errorf("%s: no cells", path)
	}
	return &r, nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its environment injected, so the exit-code contract
// CI depends on is itself testable.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	tol := fs.Float64("tolerance", 0.10, "maximum allowed per-cell regression (0.10 = 10%)")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: benchdiff [-tolerance 0.10] old.json new.json")
	}
	if err := fs.Parse(args); err != nil {
		return exitError
	}
	if fs.NArg() != 2 {
		fs.Usage()
		return exitError
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "benchdiff:", strings.TrimSpace(err.Error()))
		return exitError
	}
	oldRep, err := load(fs.Arg(0))
	if err != nil {
		return fail(err)
	}
	newRep, err := load(fs.Arg(1))
	if err != nil {
		return fail(err)
	}

	type row struct {
		name     string
		old, new float64
	}
	var rows []row
	oldCells := map[string]float64{}
	for _, c := range oldRep.Cells {
		oldCells[c.Scheme+"/"+c.Bench] = c.SimInstsPerSec
	}
	seen := map[string]bool{}
	for _, c := range newRep.Cells {
		key := c.Scheme + "/" + c.Bench
		seen[key] = true
		if o, ok := oldCells[key]; ok {
			rows = append(rows, row{key, o, c.SimInstsPerSec})
		} else {
			fmt.Fprintf(stdout, "%-24s new cell (no baseline)\n", key)
		}
	}
	for key := range oldCells {
		if !seen[key] {
			fmt.Fprintf(stdout, "%-24s retired (baseline only)\n", key)
		}
	}
	oldChips := map[string]float64{}
	for _, c := range oldRep.Multicore {
		oldChips["chip:"+c.Chip] = c.SimInstsPerSec
	}
	for _, c := range newRep.Multicore {
		if o, ok := oldChips["chip:"+c.Chip]; ok {
			rows = append(rows, row{"chip:" + c.Chip, o, c.SimInstsPerSec})
		}
	}
	if oldRep.Matrix.CellsPerSec > 0 && newRep.Matrix.CellsPerSec > 0 {
		rows = append(rows, row{"matrix cells/s", oldRep.Matrix.CellsPerSec, newRep.Matrix.CellsPerSec})
	}

	regressed := 0
	for _, r := range rows {
		delta := r.new/r.old - 1
		mark := ""
		if delta < -*tol {
			mark = "  REGRESSED"
			regressed++
		}
		fmt.Fprintf(stdout, "%-24s %12.0f -> %12.0f  %+6.1f%%%s\n", r.name, r.old, r.new, delta*100, mark)
	}
	if regressed > 0 {
		fmt.Fprintf(stderr, "benchdiff: %d cell(s) regressed more than %.0f%%\n", regressed, *tol*100)
		return exitRegressed
	}
	fmt.Fprintf(stdout, "benchdiff: %d cells compared, none regressed more than %.0f%%\n", len(rows), *tol*100)
	return exitClean
}
