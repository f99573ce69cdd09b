package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"sort"

	"rarsim/internal/core"
)

// heldOutSeed is the second seed the goldens cover, besides the default
// 42: one the sizes and checks were not chosen on.
const heldOutSeed = 7

// goldenSeeds are the seeds goldens.json stores hashes for.
var goldenSeeds = []uint64{42, heldOutSeed}

//go:embed goldens.json
var goldensJSON []byte

// goldenSet is one stored set of result hashes.
type goldenSet struct {
	Workload string            `json:"workload"`
	Seed     uint64            `json:"seed"`
	N        uint64            `json:"n"`
	Hashes   map[string]string `json:"hashes"`
}

type goldenFile struct {
	Sets []goldenSet `json:"sets"`
}

func loadGoldens() (goldenFile, error) {
	var g goldenFile
	if err := json.Unmarshal(goldensJSON, &g); err != nil {
		return g, fmt.Errorf("goldens.json: %w", err)
	}
	return g, nil
}

// lookup returns the stored hashes for (workload, seed, n), or nil when
// none are stored; only the invariants are checked then.
func (g goldenFile) lookup(workload string, seed, n uint64) map[string]string {
	for _, s := range g.Sets {
		if s.Workload == workload && s.Seed == seed && s.N == n {
			return s.Hashes
		}
	}
	return nil
}

// hashStats digests the complete statistics of every core of a result.
func hashStats(st []core.Stats) string {
	h := fnv.New64a()
	for _, s := range st {
		fmt.Fprintf(h, "%#v\x00", s)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// hashes maps every result id of p to its hash.
func (p *pass) hashes() map[string]string {
	out := make(map[string]string, len(p.results))
	for _, r := range p.results {
		if r.err == nil {
			out[r.id] = hashStats(r.stats)
		}
	}
	return out
}

// check counts p's failed operations: a result fails when it errored,
// when a core committed other than the requested instructions, when its
// CommitHash disagrees with the other runs of its benchmark, seed and
// instruction count, or when its hash differs from golden (a non-nil
// golden must also name every result). Each failure is described in
// problems.
func check(p *pass, golden map[string]string) (failed int, problems []string) {
	bad := map[string]string{}
	fail := func(id, why string) {
		if _, ok := bad[id]; !ok {
			bad[id] = why
		}
	}
	// The reference CommitHash of each group is the one most of its runs
	// report (ties go to the smaller hash, so the choice is stable).
	votes := map[string]map[uint64]int{}
	for _, r := range p.results {
		if r.err != nil {
			fail(r.id, r.err.Error())
			continue
		}
		for i, s := range r.stats {
			if s.Committed != r.want {
				fail(r.id, fmt.Sprintf("core %d committed %d instructions, want %d", i, s.Committed, r.want))
			}
			if votes[r.groups[i]] == nil {
				votes[r.groups[i]] = map[uint64]int{}
			}
			votes[r.groups[i]][s.CommitHash]++
		}
	}
	ref := map[string]uint64{}
	for g, v := range votes {
		best, bestN := uint64(0), -1
		for h, c := range v {
			if c > bestN || (c == bestN && h < best) {
				best, bestN = h, c
			}
		}
		ref[g] = best
	}
	got := p.hashes()
	for _, r := range p.results {
		if r.err != nil {
			continue
		}
		for i, s := range r.stats {
			if s.CommitHash != ref[r.groups[i]] {
				fail(r.id, fmt.Sprintf("core %d CommitHash %x disagrees with %x of its other runs", i, s.CommitHash, ref[r.groups[i]]))
			}
		}
		if golden != nil && golden[r.id] != got[r.id] {
			fail(r.id, fmt.Sprintf("stats hash %s, golden %q", got[r.id], golden[r.id]))
		}
	}
	for id := range golden {
		if _, ok := got[id]; !ok {
			fail(id, "golden result was not produced")
		}
	}
	for id, why := range bad {
		problems = append(problems, id+": "+why)
	}
	sort.Strings(problems)
	return len(bad), problems
}

// differingHashes counts the results whose hash differs between two passes
// of the same workload and seed, or that only one of them produced.
func differingHashes(a, b map[string]string) (differ int) {
	for id, h := range a {
		if b[id] != h {
			differ++
		}
	}
	for id := range b {
		if _, ok := a[id]; !ok {
			differ++
		}
	}
	return differ
}

// writeGoldens regenerates goldens.json: every workload at its benchmark
// and test sizes, for each golden seed. It refuses to store a pass that
// fails its invariants.
func writeGoldens(path string) error {
	var g goldenFile
	for _, w := range workloads {
		for _, n := range []uint64{w.n, w.tinyN} {
			for _, seed := range goldenSeeds {
				j, err := w.prepare(seed, n)
				if err != nil {
					return err
				}
				p, err := j(nil, -1)
				if err != nil {
					return fmt.Errorf("%s seed %d n %d: %w", w.name, seed, n, err)
				}
				if failed, problems := check(p, nil); failed > 0 {
					return fmt.Errorf("%s seed %d n %d: %d failed: %v", w.name, seed, n, failed, problems)
				}
				g.Sets = append(g.Sets, goldenSet{Workload: w.name, Seed: seed, N: n, Hashes: p.hashes()})
			}
		}
	}
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
