package core

import (
	"strings"
	"testing"

	"rarsim/internal/config"
	"rarsim/internal/mem"
	"rarsim/internal/trace"
)

const testInsts = 60_000

func run(t *testing.T, scheme config.Scheme, benchName string) Stats {
	t.Helper()
	return runOn(t, config.Baseline(), scheme, benchName)
}

func runOn(t *testing.T, cfg config.Core, scheme config.Scheme, benchName string) Stats {
	t.Helper()
	b, err := trace.ByName(benchName)
	if err != nil {
		t.Fatal(err)
	}
	st, err := New(nil, cfg, scheme, b, 42).RunWarm(20_000, testInsts)
	if err != nil {
		t.Fatalf("%s/%s: %v", scheme.Name, benchName, err)
	}
	return st
}

func TestRunCommitsExactly(t *testing.T) {
	for _, s := range append(config.Schemes(), config.TR, config.TREarly, config.PREEarly) {
		st := run(t, s, "libquantum")
		if st.Committed != testInsts {
			t.Errorf("%s: committed %d, want %d", s.Name, st.Committed, testInsts)
		}
		if st.Cycles == 0 || st.IPC() <= 0 || st.IPC() > float64(config.Baseline().Width) {
			t.Errorf("%s: implausible IPC %v over %d cycles", s.Name, st.IPC(), st.Cycles)
		}
	}
}

func TestDeterminism(t *testing.T) {
	for _, s := range []config.Scheme{config.OoO, config.RAR} {
		a := run(t, s, "mcf")
		b := run(t, s, "mcf")
		if a.Cycles != b.Cycles || a.TotalABC != b.TotalABC ||
			a.Mispredicts != b.Mispredicts || a.RunaheadEntries != b.RunaheadEntries {
			t.Errorf("%s: runs diverge: %+v vs %+v", s.Name, a, b)
		}
	}
}

func TestACEConsistency(t *testing.T) {
	for _, s := range config.Schemes() {
		st := run(t, s, "fotonik")
		var sum uint64
		for _, v := range st.ABC {
			sum += v
		}
		if sum != st.TotalABC {
			t.Errorf("%s: structure ABC sum %d != total %d", s.Name, sum, st.TotalABC)
		}
		if st.TotalABC == 0 {
			t.Errorf("%s: zero ABC", s.Name)
		}
		if st.FullStallABC > st.HeadBlockedABC || st.HeadBlockedABC > st.TotalABC {
			t.Errorf("%s: attribution out of order: fs=%d hb=%d tot=%d",
				s.Name, st.FullStallABC, st.HeadBlockedABC, st.TotalABC)
		}
		if st.AVF() <= 0 || st.AVF() > 1 {
			t.Errorf("%s: AVF = %v", s.Name, st.AVF())
		}
	}
}

func TestSchemeActivity(t *testing.T) {
	ooo := run(t, config.OoO, "libquantum")
	if ooo.RunaheadEntries != 0 || ooo.Flushes != 0 {
		t.Error("baseline must not runahead or flush")
	}
	flush := run(t, config.FLUSH, "libquantum")
	if flush.Flushes == 0 || flush.RunaheadEntries != 0 {
		t.Error("FLUSH must flush and never runahead")
	}
	pre := run(t, config.PRE, "libquantum")
	if pre.RunaheadEntries == 0 || pre.Flushes != 0 {
		t.Error("PRE must enter runahead")
	}
	rar := run(t, config.RAR, "libquantum")
	if rar.RunaheadEntries == 0 {
		t.Error("RAR must enter runahead")
	}
	if rar.RunaheadExecuted == 0 || rar.RunaheadDropped == 0 {
		t.Error("lean runahead must both execute slices and drop filtered uops")
	}
}

// TestEarlyTriggersMoreOften: the early-start condition fires on every
// long head block, not just full-ROB stalls (§V-B: RAR triggers 2.3x more
// often than PRE in the paper).
func TestEarlyTriggersMoreOften(t *testing.T) {
	late := run(t, config.RARLate, "libquantum")
	early := run(t, config.RAR, "libquantum")
	if early.RunaheadEntries <= late.RunaheadEntries {
		t.Errorf("early entries %d must exceed late entries %d",
			early.RunaheadEntries, late.RunaheadEntries)
	}
}

// TestReliabilityOrdering encodes the paper's headline ABC ordering on a
// streaming benchmark: RAR < RAR-LATE < OoO, FLUSH < OoO, PRE ~ OoO.
func TestReliabilityOrdering(t *testing.T) {
	ooo := run(t, config.OoO, "libquantum")
	flush := run(t, config.FLUSH, "libquantum")
	pre := run(t, config.PRE, "libquantum")
	late := run(t, config.RARLate, "libquantum")
	rar := run(t, config.RAR, "libquantum")

	if !(rar.TotalABC < late.TotalABC && late.TotalABC < ooo.TotalABC) {
		t.Errorf("ABC ordering: RAR=%d RAR-LATE=%d OoO=%d",
			rar.TotalABC, late.TotalABC, ooo.TotalABC)
	}
	if flush.TotalABC >= ooo.TotalABC {
		t.Errorf("FLUSH ABC %d must beat OoO %d", flush.TotalABC, ooo.TotalABC)
	}
	if float64(pre.TotalABC) > 1.10*float64(ooo.TotalABC) {
		t.Errorf("PRE ABC %d should not exceed OoO %d by >10%%", pre.TotalABC, ooo.TotalABC)
	}
	// Note: RAR vs FLUSH on a single benchmark can go either way (FLUSH
	// buys its ABC with a large runtime hit); the suite-level MTTF
	// ordering RAR > FLUSH is asserted in TestMTTFOrderingMemIntensive
	// and regenerated by Figure 9.
}

func TestFlushHurtsPerformance(t *testing.T) {
	ooo := run(t, config.OoO, "libquantum")
	flush := run(t, config.FLUSH, "libquantum")
	if flush.IPC() >= ooo.IPC() {
		t.Errorf("FLUSH IPC %v must trail OoO %v on a high-MLP benchmark",
			flush.IPC(), ooo.IPC())
	}
	if flush.Mem.MLP() >= ooo.Mem.MLP() {
		t.Errorf("FLUSH MLP %v must trail OoO %v", flush.Mem.MLP(), ooo.Mem.MLP())
	}
}

func TestPREImprovesPerformance(t *testing.T) {
	ooo := run(t, config.OoO, "libquantum")
	pre := run(t, config.PRE, "libquantum")
	if pre.IPC() < 1.05*ooo.IPC() {
		t.Errorf("PRE IPC %v should beat OoO %v by >5%% on a streaming benchmark",
			pre.IPC(), ooo.IPC())
	}
	if pre.MPKI() >= ooo.MPKI() {
		t.Errorf("PRE MPKI %v must beat OoO %v (runahead prefetching)",
			pre.MPKI(), ooo.MPKI())
	}
}

func TestComputeIntensiveNeutral(t *testing.T) {
	// exchange2's working set needs a full lap (~75k instructions) to
	// warm, so this test uses a longer warmup than the shared helper.
	runWarm := func(s config.Scheme) Stats {
		b, err := trace.ByName("exchange2")
		if err != nil {
			t.Fatal(err)
		}
		st, err := New(nil, config.Baseline(), s, b, 42).RunWarm(150_000, testInsts)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	ooo := runWarm(config.OoO)
	rar := runWarm(config.RAR)
	ratio := rar.IPC() / ooo.IPC()
	if ratio < 0.93 || ratio > 1.07 {
		t.Errorf("RAR on compute-intensive code: IPC ratio %v, want ~1.0", ratio)
	}
}

func TestWrongPathActivity(t *testing.T) {
	st := run(t, config.OoO, "mcf")
	if st.WrongPathFetched == 0 {
		t.Error("mcf must exercise the wrong path")
	}
	if st.MispredictRate() < 0.02 {
		t.Errorf("mcf mispredict rate %v suspiciously low", st.MispredictRate())
	}
	lq := run(t, config.OoO, "libquantum")
	if lq.MispredictRate() > 0.05 {
		t.Errorf("libquantum mispredict rate %v suspiciously high", lq.MispredictRate())
	}
}

func TestBackEndScalingIncreasesABC(t *testing.T) {
	cores := config.ScaledCores()
	small := runOn(t, cores[0], config.OoO, "fotonik")
	big := runOn(t, cores[3], config.OoO, "fotonik")
	if big.TotalABC <= small.TotalABC {
		t.Errorf("ABC must grow with back-end size: core-1=%d core-4=%d",
			small.TotalABC, big.TotalABC)
	}
}

func TestPrefetcherReducesMPKI(t *testing.T) {
	base := run(t, config.OoO, "gems")
	pf := runOn(t, config.Baseline().WithPrefetch(mem.PrefetchAll), config.OoO, "gems")
	if pf.MPKI() >= base.MPKI() {
		t.Errorf("prefetching must cut MPKI on a strided benchmark: %v vs %v",
			pf.MPKI(), base.MPKI())
	}
}

// TestLeanVersusFullRunahead: TR executes everything it fetches in
// runahead, PRE only slices — TR's executed share must be higher.
func TestLeanVersusFullRunahead(t *testing.T) {
	tr := run(t, config.TREarly, "libquantum")
	rar := run(t, config.RAR, "libquantum")
	if tr.RunaheadEntries == 0 || rar.RunaheadEntries == 0 {
		t.Fatal("both variants must trigger")
	}
	trShare := float64(tr.RunaheadExecuted) / float64(tr.RunaheadExecuted+tr.RunaheadDropped)
	rarShare := float64(rar.RunaheadExecuted) / float64(rar.RunaheadExecuted+rar.RunaheadDropped)
	if trShare <= rarShare {
		t.Errorf("non-lean executed share %v must exceed lean %v", trShare, rarShare)
	}
}

// TestMTTFOrderingMemIntensive encodes Figure 1 on one benchmark: RAR must
// deliver both better reliability than FLUSH and better performance than
// the baseline.
func TestMTTFOrderingMemIntensive(t *testing.T) {
	ooo := run(t, config.OoO, "fotonik")
	rar := run(t, config.RAR, "fotonik")
	flush := run(t, config.FLUSH, "fotonik")

	mttf := func(s Stats) float64 {
		return (float64(ooo.TotalABC) / float64(s.TotalABC)) *
			(float64(s.Cycles) / float64(ooo.Cycles))
	}
	if mttf(rar) <= 1.5 {
		t.Errorf("RAR MTTF %v must be well above baseline", mttf(rar))
	}
	if mttf(rar) <= mttf(flush) {
		t.Errorf("RAR MTTF %v must beat FLUSH %v on fotonik", mttf(rar), mttf(flush))
	}
	if rar.IPC() <= ooo.IPC() {
		t.Errorf("RAR IPC %v must beat OoO %v on fotonik", rar.IPC(), ooo.IPC())
	}
}

func TestAllSchemesAllMemBenchmarks(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix smoke test")
	}
	// Every (scheme, benchmark) pair must complete without deadlock; this
	// sweeps the state machine through all its transitions.
	for _, b := range trace.MemoryIntensive() {
		for _, s := range append(config.Schemes(), config.RunaheadVariants()...) {
			b, s := b, s
			t.Run(b.Name+"/"+s.Name, func(t *testing.T) {
				t.Parallel()
				st, err := New(nil, config.Baseline(), s, b, 7).Run(25_000)
				if err != nil {
					t.Fatal(err)
				}
				if st.Committed != 25_000 {
					t.Fatalf("committed %d", st.Committed)
				}
			})
		}
	}
}

// TestArchitecturalEquivalence: every scheme must commit the identical
// dynamic instruction sequence — speculation (wrong paths, runahead,
// flushes) never changes architectural execution. The commit-stream
// fingerprint must agree across all schemes and differ across seeds.
func TestArchitecturalEquivalence(t *testing.T) {
	for _, bn := range []string{"libquantum", "mcf", "gcc"} {
		b, err := trace.ByName(bn)
		if err != nil {
			t.Fatal(err)
		}
		var ref Stats
		for i, s := range append(config.Schemes(), config.RunaheadVariants()...) {
			st, err := New(nil, config.Baseline(), s, b, 42).Run(20_000)
			if err != nil {
				t.Fatal(err)
			}
			if st.CommitHash == 0 {
				t.Fatalf("%s/%s: zero commit hash", bn, s.Name)
			}
			if i == 0 {
				ref = st
				continue
			}
			if st.CommitHash != ref.CommitHash {
				t.Errorf("%s: scheme %s commits a different stream than %s (%#x vs %#x)",
					bn, s.Name, ref.Scheme, st.CommitHash, ref.CommitHash)
			}
		}
		other, err := New(nil, config.Baseline(), config.OoO, b, 43).Run(20_000)
		if err != nil {
			t.Fatal(err)
		}
		if other.CommitHash == ref.CommitHash {
			t.Errorf("%s: different seeds produced identical streams", bn)
		}
	}
}

// slowDRAMCore returns the baseline core with a DRAM whose fixed controller
// overhead alone exceeds the watchdog window: every LLC miss stalls the
// pipeline for longer than a fixed 500k-cycle watchdog would tolerate.
func slowDRAMCore() config.Core {
	cfg := config.Baseline()
	cfg.Mem.DRAM.Ctrl = watchdogWindow + 100_000
	return cfg
}

// TestWatchdogSurvivesLongStall: a legitimate stall longer than the
// watchdog window — here a pathologically slow DRAM — must not be reported
// as a deadlock: the deadline stretches with the configured DRAM timing
// (DRAMStallAllowance), so the run is simulated cycle by cycle to
// completion.
func TestWatchdogSurvivesLongStall(t *testing.T) {
	b, err := trace.ByName("libquantum")
	if err != nil {
		t.Fatal(err)
	}
	c := New(nil, slowDRAMCore(), config.OoO, b, 42)
	st, err := c.Run(2_000)
	if err != nil {
		t.Fatalf("slow-DRAM run must survive the watchdog: %v", err)
	}
	if st.Committed != 2_000 {
		t.Fatalf("committed %d, want 2000", st.Committed)
	}
	if st.Cycles <= watchdogWindow {
		t.Fatalf("run finished in %d cycles — DRAM not actually slow, test is vacuous", st.Cycles)
	}
}

// TestWatchdogCatchesDeadlock: a genuine deadlock — here a core whose load
// queue has zero entries, so the first load can never dispatch — must still
// trip the watchdog, whose deadline under the default DRAM timing is
// barely above watchdogWindow.
func TestWatchdogCatchesDeadlock(t *testing.T) {
	cfg := config.Baseline()
	cfg.LQ = 0
	b, err := trace.ByName("libquantum")
	if err != nil {
		t.Fatal(err)
	}
	c := New(nil, cfg, config.OoO, b, 42)
	_, err = c.Run(2_000)
	if err == nil {
		t.Fatal("LQ=0 deadlock must trip the watchdog")
	}
	if !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("want a deadlock report, got: %v", err)
	}
}
