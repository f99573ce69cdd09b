package multicore

import (
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"testing"

	"rarsim/internal/ace"
	"rarsim/internal/config"
	"rarsim/internal/core"
	"rarsim/internal/mem"
	"rarsim/internal/trace"
)

func loads(t *testing.T, scheme config.Scheme, names ...string) []Workload {
	t.Helper()
	var out []Workload
	for _, n := range names {
		b, err := trace.ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, Workload{Bench: b, Scheme: scheme})
	}
	return out
}

func runChip(t *testing.T, scheme config.Scheme, n uint64) []core.Stats {
	t.Helper()
	sys, err := New(config.Baseline(), loads(t, scheme, "libquantum", "gems", "fotonik", "milc"), 42)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := sys.Run(n)
	if err != nil {
		t.Fatal(err)
	}
	return stats
}

func TestChipRuns(t *testing.T) {
	stats := runChip(t, config.OoO, 20_000)
	if len(stats) != 4 {
		t.Fatalf("cores = %d", len(stats))
	}
	for i, st := range stats {
		if st.Committed != 20_000 {
			t.Errorf("core %d committed %d", i, st.Committed)
		}
		if st.IPC() <= 0 {
			t.Errorf("core %d IPC %v", i, st.IPC())
		}
	}
}

func TestSharedLLCContention(t *testing.T) {
	// A core co-running with three memory-intensive neighbours must be
	// slower than running alone on the same configuration: the shared
	// LLC and DRAM are genuinely contended.
	solo, err := New(config.Baseline(), loads(t, config.OoO, "libquantum"), 42)
	if err != nil {
		t.Fatal(err)
	}
	soloStats, err := solo.Run(20_000)
	if err != nil {
		t.Fatal(err)
	}
	shared := runChip(t, config.OoO, 20_000)
	if shared[0].IPC() >= soloStats[0].IPC() {
		t.Errorf("co-running IPC %v must trail solo IPC %v",
			shared[0].IPC(), soloStats[0].IPC())
	}
}

func TestChipRARImprovesMTTF(t *testing.T) {
	base := runChip(t, config.OoO, 20_000)
	rar := runChip(t, config.RAR, 20_000)
	mttf := ChipMTTFRel(base, rar)
	if mttf <= 2 {
		t.Errorf("all-RAR chip MTTF = %vx, want a large factor", mttf)
	}
	thr := ChipThroughputRel(base, rar)
	if thr < 0.8 {
		t.Errorf("all-RAR chip throughput = %v, too low", thr)
	}
	if ChipMTTFRel(base, base) != 1 {
		t.Error("baseline vs itself must be 1.0")
	}
}

func TestHeterogeneousChip(t *testing.T) {
	// Mixed schemes: two RAR cores next to two OoO cores. The chip's
	// reliability must land between all-OoO and all-RAR.
	b1, _ := trace.ByName("libquantum")
	b2, _ := trace.ByName("gems")
	b3, _ := trace.ByName("fotonik")
	b4, _ := trace.ByName("milc")
	sys, err := New(config.Baseline(), []Workload{
		{Bench: b1, Scheme: config.RAR},
		{Bench: b2, Scheme: config.OoO},
		{Bench: b3, Scheme: config.RAR},
		{Bench: b4, Scheme: config.OoO},
	}, 42)
	if err != nil {
		t.Fatal(err)
	}
	mixed, err := sys.Run(20_000)
	if err != nil {
		t.Fatal(err)
	}
	base := runChip(t, config.OoO, 20_000)
	rar := runChip(t, config.RAR, 20_000)
	mMixed := ChipMTTFRel(base, mixed)
	mRAR := ChipMTTFRel(base, rar)
	if !(1 < mMixed && mMixed < mRAR) {
		t.Errorf("mixed chip MTTF %v must sit between 1 and all-RAR %v", mMixed, mRAR)
	}
}

func TestEmptySystem(t *testing.T) {
	if _, err := New(config.Baseline(), nil, 1); err == nil {
		t.Error("empty workload list must error")
	}
}

// TestChipRelZeroDenominators pins the zero-collapse fix: a zero
// denominator (empty chip, or a run with no derated failure rate /
// no committed work) must read as NaN — unmistakably "undefined" — not
// as 0, which a report would silently render as the worst possible
// chip. Same family as the HarmMean/GeoMean fix of PR 1.
func TestChipRelZeroDenominators(t *testing.T) {
	live := core.Stats{Cycles: 1000, Committed: 500, TotalABC: 4000, TotalBits: 1 << 20}
	dead := core.Stats{} // no cycles, no bits: AVF and IPC both 0

	cases := []struct {
		name             string
		fn               func(baseline, system []core.Stats) float64
		baseline, system []core.Stats
		wantNaN          bool
		want             float64
	}{
		{"mttf empty chips", ChipMTTFRel, nil, nil, true, 0},
		{"mttf zero-AVF system", ChipMTTFRel, []core.Stats{live}, []core.Stats{dead}, true, 0},
		{"mttf empty system", ChipMTTFRel, []core.Stats{live}, nil, true, 0},
		{"mttf self is one", ChipMTTFRel, []core.Stats{live}, []core.Stats{live}, false, 1},
		{"throughput empty chips", ChipThroughputRel, nil, nil, true, 0},
		{"throughput zero baseline", ChipThroughputRel, []core.Stats{dead}, []core.Stats{live}, true, 0},
		{"throughput self is one", ChipThroughputRel, []core.Stats{live}, []core.Stats{live}, false, 1},
		{"throughput stalled system is zero", ChipThroughputRel, []core.Stats{live}, []core.Stats{dead}, false, 0},
	}
	for _, tc := range cases {
		got := tc.fn(tc.baseline, tc.system)
		if tc.wantNaN {
			if !math.IsNaN(got) {
				t.Errorf("%s = %v, want NaN", tc.name, got)
			}
		} else if got != tc.want {
			t.Errorf("%s = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// Goldens of TestGoldenChip: FNV-1a hashes of %#v of the per-core Stats
// and of the injection samples after the run.
const (
	goldenChipStats   = "dc61aec00bb7ec6f"
	goldenChipSamples = "af174f7682a584b0"
)

// hashGo returns the FNV-1a hash of v's Go-syntax representation.
func hashGo(v any) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%#v", v)
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestGoldenChip pins the full per-core Stats of one heterogeneous
// four-core chip, with a fault-injection campaign on one core and the
// invariant auditor on another. Any change to simulated timing,
// shared-LLC/DRAM contention or accounting moves the hash.
func TestGoldenChip(t *testing.T) {
	var loads []Workload
	schemes := []config.Scheme{config.RAR, config.OoO, config.FLUSH, config.TR}
	for i, n := range []string{"libquantum", "gems", "fotonik", "milc"} {
		b, err := trace.ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		loads = append(loads, Workload{Bench: b, Scheme: schemes[i]})
	}
	sys, err := New(config.Baseline(), loads, 42)
	if err != nil {
		t.Fatal(err)
	}
	var samples []core.InjectSample
	for cyc := uint64(2_003); cyc < 60_000; cyc += 7_919 {
		samples = append(samples,
			core.InjectSample{Cycle: cyc, Structure: ace.ROB, Slot: int(cyc % 192)},
			core.InjectSample{Cycle: cyc + 13, Structure: ace.IQ, Slot: int(cyc % 92)},
		)
	}
	sys.Core(1).InjectSamples(samples)
	sys.Core(2).EnableAudit(1_000)
	stats, err := sys.Run(10_000)
	if err != nil {
		t.Fatal(err)
	}
	if got := hashGo(stats); got != goldenChipStats {
		t.Errorf("chip stats hash %s, golden %s — simulation results drifted", got, goldenChipStats)
	}
	if got := hashGo(samples); got != goldenChipSamples {
		t.Errorf("chip injection samples hash %s, golden %s", got, goldenChipSamples)
	}
	resolved := 0
	for _, s := range samples {
		if s.Outcome != core.InjectPending {
			resolved++
		}
	}
	if resolved == 0 {
		t.Error("no injection sample resolved — the test exercised nothing")
	}
}

// TestChipWatchdogFrozenCoRunner pins the watchdog's false-progress fix:
// a chip where one core finishes and its co-runner is genuinely wedged
// must still trip the no-progress watchdog. (The old per-cycle sum
// covered live cores only, so the finished core dropping out made the
// total *decrease*, which read as progress and reset the deadline.) The
// frozen core here has a zero-entry load queue: its first load can never
// dispatch, the front-end fills, and no event source ever fires.
func TestChipWatchdogFrozenCoRunner(t *testing.T) {
	healthyCfg := config.Baseline()
	frozenCfg := config.Baseline()
	frozenCfg.LQ = 0
	b, err := trace.ByName("libquantum")
	if err != nil {
		t.Fatal(err)
	}
	shared := mem.NewSharedLLC(healthyCfg.Mem)
	mk := func(cfg config.Core, seed uint64) *core.Core {
		h := mem.NewHierarchyWithShared(cfg.Mem, shared)
		return core.NewWithHierarchy(nil, cfg, config.OoO, b.Name, trace.New(b, seed), h)
	}
	healthy := mk(healthyCfg, 42)
	frozen := mk(frozenCfg, 43)
	sys := &System{
		cores:    []*core.Core{healthy, frozen},
		shared:   shared,
		watchdog: 20_000,
	}
	_, err = sys.Run(2_000)
	if err == nil {
		t.Fatal("frozen co-runner must trip the chip watchdog")
	}
	if !strings.Contains(err.Error(), "no commit") {
		t.Fatalf("want a no-progress report, got: %v", err)
	}
	if healthy.Committed() < 2_000 {
		t.Errorf("healthy core committed %d before the watchdog fired, want 2000 — "+
			"the deadline must only cover the wedged remainder", healthy.Committed())
	}
}
