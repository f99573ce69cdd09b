package main

import (
	"bytes"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"rarsim/internal/config"
	"rarsim/internal/core"
	"rarsim/internal/experiments"
	"rarsim/internal/mem"
	"rarsim/internal/multicore"
	"rarsim/internal/sim"
	"rarsim/internal/trace"
)

// workload is one named batch job. All three are closed loops: the next
// simulation starts only when a worker is free.
type workload struct {
	name string
	// n is the measured committed instructions per cell (per chip core);
	// every single-core cell first warms up for n/5.
	n uint64
	// tinyN is the size the benchmark's own tests run at.
	tinyN uint64
	// prepare is the workload's set-up: it resolves benchmarks, schemes
	// and core configurations and returns the job that simulates them.
	prepare func(seed, n uint64) (job, error)
}

// job runs one pass of a workload. tr is nil for an untraced pass;
// otherwise the pass's spans hang under parent.
type job func(tr *tracer, parent int) (*pass, error)

var workloads = []workload{
	{name: "figures", n: 20_000, tinyN: 2_000, prepare: prepareFigures},
	{name: "compute", n: 200_000, tinyN: 4_000, prepare: prepareCompute},
	{name: "chip", n: 100_000, tinyN: 4_000, prepare: prepareChips},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q (want figures, compute or chip)", name)
}

// pass is the outcome of one run of a workload.
type pass struct {
	results []result // sorted by id
	// insts counts simulated instructions, warm-up included, of every
	// simulated cell or chip core; memo hits are excluded.
	insts     uint64
	wall, cpu time.Duration
	// out holds the rendered figure tables (figures only).
	out []byte
	// eng and cells are set for the engine workloads: the memoizing
	// engine the pass ran on and its unique cells in id order.
	eng   *sim.Engine
	opt   sim.Options
	cells []cell
	// cellDurs are the simulated cells' durations, and matrixSpan the
	// summed wall time from each matrix's first cell start to its last
	// cell end (engine workloads).
	cellDurs   []time.Duration
	matrixSpan time.Duration
	// hitShare is the engine's memo hits over lookups during the pass.
	hitShare float64
	// chips holds per-chip timings (chip workload only).
	chips []chipRun
}

// result is one checked operation: a single-core cell or a chip.
type result struct {
	id    string
	stats []core.Stats // one per core
	// want is the committed instruction count every core must report.
	want uint64
	// groups names, per core, the set of runs whose CommitHash must
	// agree: the same benchmark, seed and instruction count.
	groups []string
	err    error
}

// cell is one unique single-core simulation.
type cell struct {
	cfg    config.Core
	scheme config.Scheme
	bench  trace.Benchmark
}

func (c cell) id() string { return c.cfg.Name + "/" + c.scheme.Name + "/" + c.bench.Name }

// chipRun records one chip's host time and fast-forward work.
type chipRun struct {
	name      string
	wall      time.Duration
	insts     uint64
	ffSkipped uint64
	cycles    uint64
}

func options(seed, n uint64) sim.Options {
	return sim.Options{Instructions: n, Warmup: n / 5, Seed: seed, Parallelism: runtime.NumCPU()}
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// timed runs f and records its wall and CPU time in p.
func (p *pass) timed(f func() error) error {
	c0, t0 := cpuTime(), time.Now()
	err := f()
	p.wall, p.cpu = time.Since(t0), cpuTime()-c0
	return err
}

// cellRecorder collects the engine's simulated cells. The engine calls
// OnCell from its worker goroutines.
type cellRecorder struct {
	mu     sync.Mutex
	tr     *tracer
	parent int // span the next cells belong to (traced passes)
	spans  []cellSpan
}

type cellSpan struct {
	key        sim.CellKey
	start, end time.Time
	group      int // matrix (figure) the cell ran in
}

func recordCells(eng *sim.Engine, tr *tracer) *cellRecorder {
	r := &cellRecorder{tr: tr, parent: -1}
	eng.OnCell = func(p sim.CellProgress) {
		if p.Source != "sim" {
			return
		}
		end := time.Now()
		r.mu.Lock()
		defer r.mu.Unlock()
		r.spans = append(r.spans, cellSpan{key: p.Key, start: end.Add(-p.Dur), end: end, group: r.parent})
		if r.tr != nil {
			r.tr.add("sim.cell "+p.Key.String(), r.parent, end.Add(-p.Dur), end)
		}
	}
	return r
}

func (r *cellRecorder) setParent(id int) {
	r.mu.Lock()
	r.parent = id
	r.mu.Unlock()
}

// finish fills p's engine-level timings and returns the simulated keys
// in id order.
func (r *cellRecorder) finish(p *pass, n uint64) []sim.CellKey {
	m := p.eng.Metrics()
	p.hitShare = float64(m.Hits) / float64(m.Hits+m.Simulated)
	r.mu.Lock()
	defer r.mu.Unlock()
	first := map[int]time.Time{}
	last := map[int]time.Time{}
	keys := make([]sim.CellKey, 0, len(r.spans))
	for _, s := range r.spans {
		keys = append(keys, s.key)
		p.cellDurs = append(p.cellDurs, s.end.Sub(s.start))
		if t, ok := first[s.group]; !ok || s.start.Before(t) {
			first[s.group] = s.start
		}
		if t, ok := last[s.group]; !ok || s.end.After(t) {
			last[s.group] = s.end
		}
	}
	for g, t := range first {
		p.matrixSpan += last[g].Sub(t)
	}
	p.insts = uint64(len(keys)) * (n + n/5)
	sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })
	return keys
}

// addCell appends a single-core cell's result.
func (p *pass) addCell(c cell, st core.Stats, err error, n uint64) {
	p.cells = append(p.cells, c)
	p.results = append(p.results, result{
		id: c.id(), stats: []core.Stats{st}, want: n,
		groups: []string{c.bench.Name}, err: err,
	})
}

// figureSteps lists experiments.All's figures in its order. Traced
// passes call them one by one to give each figure its own span; the
// traced pass's rendered tables must equal All's byte for byte.
var figureSteps = []struct {
	name string
	fn   func(experiments.Config) error
}{
	{"fig1", experiments.Fig1}, {"fig3", experiments.Fig3}, {"fig4", experiments.Fig4},
	{"fig5", experiments.Fig5}, {"fig7", experiments.Fig7}, {"fig8", experiments.Fig8},
	{"fig9", experiments.Fig9}, {"fig10", experiments.Fig10}, {"fig11", experiments.Fig11},
}

// figureCores lists every core configuration the figures use, so a
// cell key can be mapped back to its configuration.
func figureCores() []config.Core {
	cores := append([]config.Core{config.Baseline()}, config.ScaledCores()...)
	return append(cores, config.Baseline().WithPrefetch(mem.PrefetchL3), config.Baseline().WithPrefetch(mem.PrefetchAll))
}

// resolveCell maps a simulated cell's key back to the cell it names.
func resolveCell(k sim.CellKey, cores []config.Core, opt sim.Options) (cell, error) {
	scheme, err := config.SchemeByName(k.Scheme)
	if err != nil {
		return cell{}, err
	}
	bench, err := trace.ByName(k.Bench)
	if err != nil {
		return cell{}, err
	}
	for _, cfg := range cores {
		if sim.KeyFor(cfg, scheme, bench, opt) == k {
			return cell{cfg, scheme, bench}, nil
		}
	}
	return cell{}, fmt.Errorf("cell %s: no known core configuration matches its key", k)
}

// prepareFigures: experiments.All through one memory-only engine, the
// tables rendered to a buffer and no CSV written.
func prepareFigures(seed, n uint64) (job, error) {
	opt := options(seed, n)
	cores := figureCores()
	return func(tr *tracer, parent int) (*pass, error) {
		p := &pass{eng: sim.NewEngine(), opt: opt}
		rec := recordCells(p.eng, tr)
		var out bytes.Buffer
		cfg := experiments.Config{Opt: opt, Out: &out, Engine: p.eng}
		err := p.timed(func() error {
			if tr == nil {
				return experiments.All(cfg)
			}
			for _, f := range figureSteps {
				id := tr.begin("experiments."+f.name, parent)
				rec.setParent(id)
				err := f.fn(cfg)
				tr.end(id)
				if err != nil {
					return fmt.Errorf("%s: %w", f.name, err)
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		p.out = out.Bytes()
		for _, k := range rec.finish(p, n) {
			c, err := resolveCell(k, cores, opt)
			if err != nil {
				return nil, err
			}
			st, err := p.eng.Run(c.cfg, c.scheme, c.bench, opt) // a memo hit
			p.addCell(c, st, err, n)
		}
		return p, nil
	}, nil
}

// prepareCompute: the Fig 7 schemes on the compute-intensive suite,
// through Engine.RunMatrix.
func prepareCompute(seed, n uint64) (job, error) {
	opt := options(seed, n)
	base := config.Baseline()
	schemes := config.Schemes()
	benches := trace.ComputeIntensive()
	return func(tr *tracer, parent int) (*pass, error) {
		p := &pass{eng: sim.NewEngine(), opt: opt}
		rec := recordCells(p.eng, tr)
		rec.setParent(parent)
		var rs *sim.ResultSet
		err := p.timed(func() (err error) {
			rs, err = p.eng.RunMatrix([]config.Core{base}, schemes, benches, opt)
			return err
		})
		if err != nil {
			return nil, err
		}
		rec.finish(p, n)
		for _, s := range schemes {
			for _, b := range benches {
				st, ok := rs.Stats(base.Name, s.Name, b.Name)
				var err error
				if !ok {
					err = fmt.Errorf("missing from the result set")
				}
				p.addCell(cell{base, s, b}, st, err, n)
			}
		}
		sort.Slice(p.results, func(i, j int) bool { return p.results[i].id < p.results[j].id })
		sort.Slice(p.cells, func(i, j int) bool { return p.cells[i].id() < p.cells[j].id() })
		return p, nil
	}, nil
}

// chipSpec is one four-core chip: core i runs benches[i] under
// schemes[i%len(schemes)].
type chipSpec struct {
	name    string
	benches []string
	schemes []config.Scheme
}

// chipSpecs are the AblationMulticore pair and cmd/bench's three chips.
func chipSpecs() []chipSpec {
	ablation := []string{"libquantum", "gems", "fotonik", "milc"}
	memMix := []string{"mcf", "libquantum", "soplex", "astar"}
	return []chipSpec{
		{"abl-ooo", ablation, []config.Scheme{config.OoO}},
		{"abl-rar", ablation, []config.Scheme{config.RAR}},
		{"mem-ooo", memMix, []config.Scheme{config.OoO}},
		{"mem-rar", memMix, []config.Scheme{config.RAR}},
		{"mixed", []string{"libquantum", "exchange2", "mcf", "x264"}, []config.Scheme{config.RAR, config.OoO}},
	}
}

// chipLoads resolves a chip's per-core workloads.
func chipLoads(spec chipSpec) ([]multicore.Workload, error) {
	var loads []multicore.Workload
	for i, name := range spec.benches {
		b, err := trace.ByName(name)
		if err != nil {
			return nil, err
		}
		loads = append(loads, multicore.Workload{Bench: b, Scheme: spec.schemes[i%len(spec.schemes)]})
	}
	return loads, nil
}

// prepareChips: four-core shared-LLC chips run one after another on one
// thread through multicore.New and one System.Run(n) each, as
// AblationMulticore runs them. Chips get no separate warm-up: System.Run
// has none, and a second Run on the same System can panic in
// core.SkipTo.
func prepareChips(seed, n uint64) (job, error) {
	specs := chipSpecs()
	loads := make([][]multicore.Workload, len(specs))
	for i, s := range specs {
		l, err := chipLoads(s)
		if err != nil {
			return nil, err
		}
		loads[i] = l
	}
	return func(tr *tracer, parent int) (*pass, error) {
		p := &pass{}
		_ = p.timed(func() error { // a failed chip is a failed result, not a failed pass
			for i, spec := range specs {
				t0 := time.Now()
				id := -1
				if tr != nil {
					id = tr.begin("multicore.System.Run "+spec.name, parent)
				}
				sys, err := multicore.New(config.Baseline(), loads[i], seed)
				var st []core.Stats
				if err == nil {
					st, err = sys.Run(n)
				}
				if tr != nil {
					tr.end(id)
				}
				run := chipRun{name: spec.name, wall: time.Since(t0), insts: uint64(len(loads[i])) * n}
				r := result{id: "chip/" + spec.name, stats: st, want: n, err: err}
				for c, l := range loads[i] {
					r.groups = append(r.groups, fmt.Sprintf("core%d/%s", c, l.Bench.Name))
				}
				if err == nil {
					run.ffSkipped = sys.FFSkippedCycles()
					for c := 0; c < sys.Cores(); c++ {
						run.cycles += sys.Core(c).CycleCount()
					}
				}
				p.chips = append(p.chips, run)
				p.results = append(p.results, r)
				p.insts += run.insts
			}
			return nil
		})
		sort.Slice(p.results, func(i, j int) bool { return p.results[i].id < p.results[j].id })
		return p, nil
	}, nil
}
