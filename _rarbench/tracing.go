package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"rarsim/internal/config"
	"rarsim/internal/core"
	"rarsim/internal/isa"
	"rarsim/internal/sim"
	"rarsim/internal/trace"
)

// tracer keeps spans in memory; the traced run writes them out when it
// ends. Engine workers add cell spans concurrently.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

type span struct {
	name       string
	parent     int
	start, end time.Time
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) begin(name string, parent int) int {
	return t.add(name, parent, time.Now(), time.Time{})
}

func (t *tracer) end(id int) {
	now := time.Now()
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

func (t *tracer) add(name string, parent int, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name, parent, start, end})
	return len(t.spans) - 1
}

func (t *tracer) dur(id int) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id].end.Sub(t.spans[id].start)
}

// children returns the ids of id's child spans.
func (t *tracer) children(id int) []int {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []int
	for i, s := range t.spans {
		if s.parent == id {
			out = append(out, i)
		}
	}
	return out
}

// selfTime is a span's duration minus the part of it its children
// cover; concurrent children are counted once.
func (t *tracer) selfTime(id int) time.Duration {
	kids := t.children(id)
	t.mu.Lock()
	defer t.mu.Unlock()
	ivs := make([][2]time.Time, 0, len(kids))
	for _, k := range kids {
		ivs = append(ivs, [2]time.Time{t.spans[k].start, t.spans[k].end})
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0].Before(ivs[j][0]) })
	var covered time.Duration
	var curS, curE time.Time
	for i, iv := range ivs {
		if i == 0 || iv[0].After(curE) {
			covered += curE.Sub(curS)
			curS, curE = iv[0], iv[1]
		} else if iv[1].After(curE) {
			curE = iv[1]
		}
	}
	covered += curE.Sub(curS)
	s := t.spans[id]
	return s.end.Sub(s.start) - covered
}

// write stores the spans as JSON, times in microseconds from the
// tracer's start.
func (t *tracer) write(path string) error {
	type out struct {
		ID     int     `json:"id"`
		Parent int     `json:"parent"`
		Name   string  `json:"name"`
		Start  float64 `json:"start_us"`
		End    float64 `json:"end_us"`
	}
	t.mu.Lock()
	spans := make([]out, len(t.spans))
	for i, s := range t.spans {
		spans[i] = out{i, s.parent, s.name, us(s.start.Sub(t.epoch)), us(s.end.Sub(t.epoch))}
	}
	t.mu.Unlock()
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// tracedPass runs one pass of j under tr, inside a span named after the
// workload.
func tracedPass(tr *tracer, parent int, name string, j job) (*pass, int, error) {
	root := tr.begin("workload "+name, parent)
	p, err := j(tr, root)
	tr.end(root)
	return p, root, err
}

// timedSource wraps a generator so a replayed core's instruction
// synthesis can be timed in place. Every call forwards unchanged, so
// the core's results are those of trace.New alone.
type timedSource struct {
	g       *trace.Generator
	correct time.Duration // Next and NextBlock
	wrong   time.Duration // WrongPath and WrongPathBlock
}

var _ trace.BlockSource = (*timedSource)(nil)

func (s *timedSource) Next(in *isa.Inst) {
	t := time.Now()
	s.g.Next(in)
	s.correct += time.Since(t)
}

func (s *timedSource) NextBlock(dst []isa.Inst) {
	t := time.Now()
	s.g.NextBlock(dst)
	s.correct += time.Since(t)
}

func (s *timedSource) WrongPath(in *isa.Inst, pc uint64) {
	t := time.Now()
	s.g.WrongPath(in, pc)
	s.wrong += time.Since(t)
}

func (s *timedSource) WrongPathBlock(dst []isa.Inst, pc uint64) {
	t := time.Now()
	s.g.WrongPathBlock(dst, pc)
	s.wrong += time.Since(t)
}

// replay is one cell simulated directly through core.NewFromSource and
// RunWarm.
type replay struct {
	cell      cell
	stats     core.Stats
	err       error
	newDur    time.Duration // core.NewFromSource
	runDur    time.Duration // RunWarm, synthesis included
	synthDur  time.Duration // trace synthesis inside RunWarm
	cycles    uint64        // whole-run cycles, warm-up included
	ffSkipped uint64
}

// replayCells simulates cells on opt.Parallelism workers, adding a
// construction and a run span per cell under parent.
func replayCells(tr *tracer, parent int, cells []cell, opt sim.Options) []replay {
	out := make([]replay, len(cells))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < opt.Parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				c := cells[i]
				src := &timedSource{g: trace.New(c.bench, opt.Seed)}
				t0 := time.Now()
				co := core.NewFromSource(c.cfg, c.scheme, c.bench.Name, src)
				t1 := time.Now()
				st, err := co.RunWarm(opt.Warmup, opt.Instructions)
				t2 := time.Now()
				tr.add("core.NewFromSource "+c.id(), parent, t0, t1)
				tr.add("core.RunWarm "+c.id(), parent, t1, t2)
				out[i] = replay{
					cell: c, stats: st, err: err,
					newDur: t1.Sub(t0), runDur: t2.Sub(t1), synthDur: src.correct + src.wrong,
					cycles: co.CycleCount(), ffSkipped: co.FFSkippedCycles(),
				}
			}
		}()
	}
	for i := range cells {
		next <- i
	}
	close(next)
	wg.Wait()
	return out
}

// allSchemes are the eight schemes core.* metrics are reported for.
func allSchemes() []config.Scheme {
	return []config.Scheme{config.OoO, config.FLUSH, config.TR, config.TREarly,
		config.PRE, config.PREEarly, config.RARLate, config.RAR}
}

// replaySet lists the cells a traced run replays: the workload's unique
// cells (for the chip workload, each chip core's scheme and benchmark on
// a baseline single core), plus every scheme the workload never runs on
// the workload's benchmarks, so each core.<scheme> metric is measured on
// every workload.
func replaySet(w workload, p *pass) ([]cell, error) {
	cells := append([]cell(nil), p.cells...)
	if w.name == "chip" {
		base := config.Baseline()
		for _, spec := range chipSpecs() {
			loads, err := chipLoads(spec)
			if err != nil {
				return nil, err
			}
			for _, l := range loads {
				cells = append(cells, cell{base, l.Scheme, l.Bench})
			}
		}
	}
	seen := map[string]bool{}
	used := map[string]bool{}
	var uniq []cell
	for _, c := range cells {
		used[c.scheme.Name] = true
		if !seen[c.id()] {
			seen[c.id()] = true
			uniq = append(uniq, c)
		}
	}
	benches, err := workloadBenches(w)
	if err != nil {
		return nil, err
	}
	for _, s := range allSchemes() {
		if used[s.Name] {
			continue
		}
		for _, b := range benches {
			uniq = append(uniq, cell{config.Baseline(), s, b})
		}
	}
	return uniq, nil
}

// workloadBenches lists the benchmarks a workload simulates.
func workloadBenches(w workload) ([]trace.Benchmark, error) {
	switch w.name {
	case "figures":
		return trace.All(), nil
	case "compute":
		return trace.ComputeIntensive(), nil
	}
	var out []trace.Benchmark
	seen := map[string]bool{}
	for _, spec := range chipSpecs() {
		loads, err := chipLoads(spec)
		if err != nil {
			return nil, err
		}
		for _, l := range loads {
			if !seen[l.Bench.Name] {
				seen[l.Bench.Name] = true
				out = append(out, l.Bench)
			}
		}
	}
	return out, nil
}

// tracedRun is the per-layer measurement of workload w: untraced and
// traced passes of w (whose results must hash alike), replays of
// w's cells, replay probes on w's benchmarks, and traced passes of the
// figures and chip workloads where w is neither, so every per-layer
// metric is reported on every workload. It returns the result and the
// problems found.
func tracedRun(cfg runConfig, checkPass func(string, uint64, *pass) (int, []string)) (output, []string, error) {
	w, seed, size := cfg.workload, cfg.seed, cfg.size
	n := size(w)
	tr := newTracer()
	run := tr.begin("rarbench "+w.name, -1)
	var (
		out      output
		problems []string
	)
	tally := func(name string, pn uint64, p *pass) {
		f, pr := checkPass(name, pn, p)
		out.Attempted += len(p.results)
		out.Failed += f
		problems = append(problems, pr...)
	}

	j, err := w.prepare(seed, n)
	if err != nil {
		return output{}, nil, err
	}
	// Untraced, traced, untraced: the overhead compares the traced pass
	// with both neighbours, so the first pass's cold start cancels out.
	var untraced [2]*pass
	var traced *pass
	tracedRoot := -1
	for i := 0; i < 3; i++ {
		runtime.GC()
		var p *pass
		if i == 1 {
			p, tracedRoot, err = tracedPass(tr, run, w.name, j)
			traced = p
		} else {
			p, err = j(nil, -1)
			untraced[i/2] = p
		}
		if err != nil {
			return output{}, nil, err
		}
		tally(w.name, n, p)
	}
	for _, u := range untraced {
		if d := differingHashes(u.hashes(), traced.hashes()); d > 0 {
			out.Failed += d
			problems = append(problems, fmt.Sprintf("%d results of the traced pass differ from an untraced pass", d))
		}
		if string(u.out) != string(traced.out) {
			out.Failed++
			problems = append(problems, "traced figure tables differ from experiments.All's")
		}
	}

	cells, err := replaySet(w, traced)
	if err != nil {
		return output{}, nil, err
	}
	opt := options(seed, n)
	rid := tr.begin("replay "+w.name, run)
	replays := replayCells(tr, rid, cells, opt)
	tr.end(rid)
	passHashes := traced.hashes()
	for _, r := range replays {
		out.Attempted++
		id := r.cell.id()
		switch {
		case r.err != nil:
			out.Failed++
			problems = append(problems, "replay "+id+": "+r.err.Error())
		case r.stats.Committed != opt.Instructions:
			out.Failed++
			problems = append(problems, fmt.Sprintf("replay %s committed %d, want %d", id, r.stats.Committed, opt.Instructions))
		case passHashes[id] != "" && hashStats([]core.Stats{r.stats}) != passHashes[id]:
			out.Failed++
			problems = append(problems, "replay "+id+" differs from the engine's result")
		}
	}

	benches, err := workloadBenches(w)
	if err != nil {
		return output{}, nil, err
	}
	pid := tr.begin("probes "+w.name, run)
	pr := runProbes(tr, pid, benches, seed)
	tr.end(pid)

	// The scheduling layers (experiments, multicore) come from the
	// workload that exercises them.
	figPass, figRoot, chipPass := traced, tracedRoot, traced
	if w.name != "figures" {
		fw, _ := workloadByName("figures")
		fj, err := fw.prepare(seed, size(fw))
		if err != nil {
			return output{}, nil, err
		}
		if figPass, figRoot, err = tracedPass(tr, run, fw.name, fj); err != nil {
			return output{}, nil, err
		}
		tally(fw.name, size(fw), figPass)
	}
	if w.name != "chip" {
		cw, _ := workloadByName("chip")
		cj, err := cw.prepare(seed, size(cw))
		if err != nil {
			return output{}, nil, err
		}
		if chipPass, _, err = tracedPass(tr, run, cw.name, cj); err != nil {
			return output{}, nil, err
		}
		tally(cw.name, size(cw), chipPass)
	}
	simPass := traced
	if simPass.eng == nil {
		simPass = figPass
	}
	sp := probeSim(simPass)

	out.Metrics = layerMetrics(layerInputs{
		tr: tr, figRoot: figRoot, chipPass: chipPass, simPass: simPass,
		own: traced, replays: replays, probes: pr, sim: sp,
		tracedOver: 2 * traced.wall.Seconds() / (untraced[0].wall.Seconds() + untraced[1].wall.Seconds()),
	})
	tr.end(run)
	if err := tr.write(cfg.spans); err != nil {
		return output{}, nil, err
	}
	return out, problems, nil
}
