// Command rarbench is the repository benchmark. It times the jobs users
// of the simulator wait for — regenerating the paper's figures, a
// compute-bound scheme matrix and four-core chips — end to end, checks
// every simulated result against golden hashes and invariants, and with
// --trace 1 breaks the time down by layer. README.md lists the workloads
// and metrics.
//
// Usage (from the repository root):
//
//	bash _rarbench/run.sh --workload figures --seed 42 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// setupProbeEnv, when set to "<workload> <seed> <spawn unix ns>", turns
// the process into a set-up probe: it sets the workload up, prints the
// nanoseconds since its parent spawned it, and exits.
const setupProbeEnv = "RARBENCH_SETUP_PROBE"

// setupRuns is how many set-up probes a run spawns; setup_s is their
// median.
const setupRuns = 31

// endToEnd lists the end-to-end metrics, as in BENCHMARK.json.
var endToEnd = []struct{ name, unit string }{
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"sim_minsts_per_s", "Minst/s"},
	{"peak_rss_mb", "MiB"},
	{"setup_s", "s"},
}

// output is the result line.
type output struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// runConfig is one invocation's settings.
type runConfig struct {
	workload workload
	seed     uint64
	seconds  float64
	trace    bool
	spans    string
	// tiny runs every workload at its test size.
	tiny bool
	// report receives the readable per-pass lines.
	report io.Writer
}

func (c runConfig) size(w workload) uint64 {
	if c.tiny {
		return w.tinyN
	}
	return w.n
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	if v := os.Getenv(setupProbeEnv); v != "" {
		return setupProbe(v, stdout, stderr)
	}
	fs := flag.NewFlagSet("rarbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "figures", "workload: figures, compute or chip")
	seed := fs.Uint64("seed", 42, "workload generation seed")
	seconds := fs.Float64("seconds", 30, "how long the untraced run measures")
	traced := fs.Int("trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
	spans := fs.String("spans", "", "file the traced run writes its spans to (default .bench_build/spans-<workload>-<seed>.json)")
	goldens := fs.String("write-goldens", "", "regenerate the golden result hashes into this file and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *goldens != "" {
		if err := writeGoldens(*goldens); err != nil {
			fmt.Fprintln(stderr, "rarbench:", err)
			return 1
		}
		return 0
	}
	w, err := workloadByName(*name)
	if err != nil || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "rarbench: want --workload figures|compute|chip and --trace 0|1")
		return 2
	}
	cfg := runConfig{workload: w, seed: *seed, seconds: *seconds, trace: *traced == 1, spans: *spans}
	if cfg.spans == "" {
		cfg.spans = filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.json", w.name, *seed))
	}
	out, err := bench(cfg, stdout, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "rarbench:", err)
		return 1
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "rarbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

// bench runs the configured measurement and prints a readable report
// ahead of the result line.
func bench(cfg runConfig, stdout, stderr io.Writer) (output, error) {
	cfg.report = stdout
	g, err := loadGoldens()
	if err != nil {
		return output{}, err
	}
	checkPass := func(name string, n uint64, p *pass) (int, []string) {
		return check(p, g.lookup(name, cfg.seed, n))
	}
	measure := untracedRun
	if cfg.trace {
		measure = tracedRun
	}
	out, problems, err := measure(cfg, checkPass)
	if err != nil {
		return output{}, err
	}
	out.Correct = out.Failed == 0
	for _, p := range problems {
		fmt.Fprintln(stderr, "rarbench: FAILED", p)
	}
	names := make([]string, 0, len(out.Metrics))
	for n := range out.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(stdout, "%s seed %d: ops %d, ops_failed %d\n", cfg.workload.name, cfg.seed, out.Attempted, out.Failed)
	for _, n := range names {
		fmt.Fprintf(stdout, "  %-34s %14.6g %s\n", n, out.Metrics[n].Value, out.Metrics[n].Unit)
	}
	return out, nil
}

// untracedRun repeats the workload until the time budget is spent and
// reports the median pass. Every pass is checked: against the goldens
// where they exist, otherwise against the first pass.
func untracedRun(cfg runConfig, checkPass func(string, uint64, *pass) (int, []string)) (output, []string, error) {
	w, n := cfg.workload, cfg.size(cfg.workload)
	setup, err := measureSetup(w.name, cfg.seed)
	if err != nil {
		return output{}, nil, err
	}
	j, err := w.prepare(cfg.seed, n)
	if err != nil {
		return output{}, nil, err
	}
	var (
		out                output
		problems           []string
		walls, cpus, rates []float64
		first              map[string]string
	)
	budget := time.Duration(cfg.seconds * float64(time.Second))
	start := time.Now()
	for i := 1; ; i++ {
		runtime.GC() // every pass starts from a collected heap
		p, err := j(nil, -1)
		if err != nil {
			out.Attempted++
			out.Failed++
			problems = append(problems, fmt.Sprintf("pass %d: %v", i, err))
			break
		}
		f, pr := checkPass(w.name, n, p)
		if first != nil {
			if d := differingHashes(first, p.hashes()); d > 0 {
				f += d
				pr = append(pr, fmt.Sprintf("pass %d: %d results differ from pass 1", i, d))
			}
		} else {
			first = p.hashes()
		}
		out.Attempted += len(p.results)
		out.Failed += f
		problems = append(problems, pr...)
		walls = append(walls, p.wall.Seconds())
		cpus = append(cpus, p.cpu.Seconds())
		rates = append(rates, float64(p.insts)/p.wall.Seconds()/1e6)
		fmt.Fprintf(cfg.report, "%s seed %d n %d pass %d: wall %.3f s, cpu %.3f s, %.3f Minst/s, %d ops, %d failed\n",
			w.name, cfg.seed, n, i, p.wall.Seconds(), p.cpu.Seconds(), rates[len(rates)-1], len(p.results), f)
		if time.Since(start)+p.wall > budget {
			break
		}
	}
	if len(walls) == 0 {
		return out, problems, nil
	}
	out.Metrics = metrics{}
	for _, e := range endToEnd {
		var v float64
		switch e.name {
		case "wall_s":
			v = median(walls)
		case "cpu_s":
			v = median(cpus)
		case "sim_minsts_per_s":
			v = median(rates)
		case "peak_rss_mb":
			v = peakRSSMB()
		case "setup_s":
			v = setup
		}
		out.Metrics[e.name] = metric{v, e.unit}
	}
	return out, problems, nil
}

// peakRSSMB is the process's peak resident set in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// measureSetup spawns setupRuns set-up probes of this program and
// returns the median seconds from spawn to the point where the
// workload's first simulation would start.
func measureSetup(name string, seed uint64) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	var secs []float64
	for i := 0; i < setupRuns; i++ {
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(), fmt.Sprintf("%s=%s %d %d", setupProbeEnv, name, seed, time.Now().UnixNano()))
		out, err := cmd.Output()
		if err != nil {
			return 0, fmt.Errorf("set-up probe: %w", err)
		}
		ns, err := strconv.ParseInt(strings.TrimSpace(string(out)), 10, 64)
		if err != nil {
			return 0, fmt.Errorf("set-up probe output %q: %w", out, err)
		}
		secs = append(secs, float64(ns)/1e9)
	}
	return median(secs), nil
}

// setupProbe is the probe side of measureSetup.
func setupProbe(v string, stdout, stderr io.Writer) int {
	var name string
	var seed uint64
	var spawned int64
	if _, err := fmt.Sscanf(v, "%s %d %d", &name, &seed, &spawned); err != nil {
		fmt.Fprintf(stderr, "rarbench: bad %s %q: %v\n", setupProbeEnv, v, err)
		return 2
	}
	w, err := workloadByName(name)
	if err == nil {
		_, err = w.prepare(seed, w.n)
	}
	if err != nil {
		fmt.Fprintln(stderr, "rarbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, time.Now().UnixNano()-spawned)
	return 0
}
