package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestMain(m *testing.M) {
	// measureSetup spawns this test binary as its set-up probe.
	if v := os.Getenv(setupProbeEnv); v != "" {
		os.Exit(setupProbe(v, os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// declared reads the metric names and units BENCHMARK.json promises.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if strings.Join(names, ",") != strings.Join(ours, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, ours)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// runTiny runs one workload at its test size and decodes the result
// line, which must be the last line of standard output.
func runTiny(t *testing.T, w workload, traced bool) output {
	t.Helper()
	var stdout, stderr bytes.Buffer
	cfg := runConfig{workload: w, seed: 42, trace: traced, tiny: true, spans: filepath.Join(t.TempDir(), "spans.json")}
	out, err := bench(cfg, &stdout, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	if stderr.Len() > 0 {
		t.Errorf("%s: %s", w.name, stderr.String())
	}
	return out
}

func checkMetrics(t *testing.T, name string, got metrics, want map[string]string) {
	t.Helper()
	for n, unit := range want {
		m, ok := got[n]
		if !ok {
			t.Errorf("%s: metric %s not reported", name, n)
		} else if m.Unit != unit {
			t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", name, n, m.Unit, unit)
		}
	}
	for n := range got {
		if _, ok := want[n]; !ok {
			t.Errorf("%s: metric %s is not in BENCHMARK.json", name, n)
		}
	}
}

// TestEveryMetricReported runs each workload untraced and traced at its
// test size: every metric BENCHMARK.json names is printed with its unit,
// and no operation fails on this tree. Seed 42 has stored goldens at the
// test sizes, so the golden comparison runs too.
func TestEveryMetricReported(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			out := runTiny(t, w, traced)
			want := endToEnd
			if traced {
				want = perLayer
			}
			checkMetrics(t, w.name, out.Metrics, want)
			if out.Failed != 0 || !out.Correct || out.Attempted == 0 {
				t.Errorf("%s traced=%v: attempted %d, failed %d, correct %v", w.name, traced, out.Attempted, out.Failed, out.Correct)
			}
		}
	}
}

// TestBadFlags: an unknown workload or trace mode is a usage error.
func TestBadFlags(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &stdout, &stderr); code == 0 {
		t.Errorf("unknown workload exited 0")
	}
	if code := run([]string{"--trace", "2"}, &stdout, &stderr); code == 0 {
		t.Errorf("--trace 2 exited 0")
	}
}

// TestCorruptedGoldenFails: a wrong or missing golden, and a perturbed
// result, are each counted as failed operations, not silently passed.
func TestCorruptedGoldenFails(t *testing.T) {
	w, _ := workloadByName("compute")
	g, err := loadGoldens()
	if err != nil {
		t.Fatal(err)
	}
	golden := g.lookup(w.name, 42, w.tinyN)
	if golden == nil {
		t.Fatal("no stored goldens for compute at the test size")
	}
	j, err := w.prepare(42, w.tinyN)
	if err != nil {
		t.Fatal(err)
	}
	p, err := j(nil, -1)
	if err != nil {
		t.Fatal(err)
	}
	if failed, problems := check(p, golden); failed != 0 {
		t.Fatalf("clean pass failed %d: %v", failed, problems)
	}

	corrupt := map[string]string{}
	for id, h := range golden {
		corrupt[id] = h
	}
	id := p.results[0].id
	corrupt[id] = "0000000000000000"
	if failed, _ := check(p, corrupt); failed != 1 {
		t.Errorf("corrupted golden: %d failed, want 1", failed)
	}
	delete(corrupt, id)
	corrupt["baseline/OoO/nonesuch"] = "0000000000000000"
	if failed, _ := check(p, corrupt); failed != 2 {
		t.Errorf("dropped and invented goldens: %d failed, want 2", failed)
	}

	// Perturb one result: a changed statistic breaks its golden, a
	// short commit count and a foreign CommitHash break the invariants
	// even without goldens.
	p.results[1].stats[0].Cycles++
	if failed, _ := check(p, golden); failed != 1 {
		t.Errorf("perturbed stats: %d failed, want 1", failed)
	}
	p.results[2].stats[0].Committed--
	p.results[3].stats[0].CommitHash ^= 1
	if failed, problems := check(p, nil); failed != 2 {
		t.Errorf("broken invariants: %d failed, want 2: %v", failed, problems)
	}
}
