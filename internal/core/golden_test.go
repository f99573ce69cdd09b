package core

import (
	"fmt"
	"hash/fnv"
	"testing"

	"rarsim/internal/ace"
	"rarsim/internal/config"
	"rarsim/internal/trace"
)

// hashGo returns the FNV-1a hash of v's Go-syntax representation (%#v),
// so a golden covers every field, nested structs and arrays included.
func hashGo(v any) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%#v", v)
	return fmt.Sprintf("%016x", h.Sum64())
}

// goldenSchemes is every distinct scheme of config.Schemes and
// config.RunaheadVariants.
func goldenSchemes() []config.Scheme {
	var out []config.Scheme
	seen := map[string]bool{}
	for _, s := range append(config.Schemes(), config.RunaheadVariants()...) {
		if !seen[s.Name] {
			seen[s.Name] = true
			out = append(out, s)
		}
	}
	return out
}

// goldenStats pins hashGo of the measured Stats of RunWarm(5_000, 30_000)
// at seed 42 on the baseline core, per bench/scheme.
var goldenStats = map[string]string{
	"libquantum/OoO":       "d05d23ff18a56d62",
	"libquantum/FLUSH":     "dfae0142a0163811",
	"libquantum/PRE":       "0579836cf77f00b6",
	"libquantum/RAR-LATE":  "779e4b135d9d120b",
	"libquantum/RAR":       "3b96d740e08c727b",
	"libquantum/TR":        "5ffd66824e254042",
	"libquantum/TR-EARLY":  "785507ceafbbb147",
	"libquantum/PRE-EARLY": "2b178b98c6d206e4",
	"mcf/OoO":              "ddfbaca09267a23d",
	"mcf/FLUSH":            "c199a9a2411470f4",
	"mcf/PRE":              "fcd80d2327c84cdb",
	"mcf/RAR-LATE":         "2cf9469bed6fa022",
	"mcf/RAR":              "54bcc592665b884d",
	"mcf/TR":               "695aa4f5a5506630",
	"mcf/TR-EARLY":         "290c0fd902432b1f",
	"mcf/PRE-EARLY":        "742e8d1e1e1e9398",
	"exchange2/OoO":        "ec6253b9dbc9f0b7",
	"exchange2/FLUSH":      "4819f3b816dcd02b",
	"exchange2/PRE":        "b7af1f379a431ff5",
	"exchange2/RAR-LATE":   "e66f4f5d369acb7a",
	"exchange2/RAR":        "430bdd49c176449d",
	"exchange2/TR":         "7ae18de92a2341b0",
	"exchange2/TR-EARLY":   "a5431cdc3aa6be74",
	"exchange2/PRE-EARLY":  "78f27a8d7dc4fbf4",
}

// Goldens of the audited and the fault-injected run below.
const (
	goldenAuditStats   = "54bcc592665b884d"
	goldenInjectStats  = "3b96d740e08c727b"
	goldenInjectSample = "64af8661aa198716"
)

// goldenRun runs bench under scheme for 5k warmup + 30k measured
// instructions at seed 42, after arm (if any) has configured the core.
func goldenRun(t *testing.T, scheme config.Scheme, bench string, arm func(*Core)) Stats {
	t.Helper()
	b, err := trace.ByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	c := New(nil, config.Baseline(), scheme, b, 42)
	if arm != nil {
		arm(c)
	}
	st, err := c.RunWarm(5_000, 30_000)
	if err != nil {
		t.Fatalf("%s/%s: %v", bench, scheme.Name, err)
	}
	return st
}

// checkGolden fails when v's hash differs from want, naming the drift.
func checkGolden(t *testing.T, what string, v any, want string) {
	t.Helper()
	if got := hashGo(v); got != want {
		t.Errorf("%s: hash %s, golden %s — simulation results drifted", what, got, want)
	}
}

// TestGoldenStats pins the full measured Stats of every scheme on a
// memory-bound (libquantum), a pointer-chasing (mcf) and a compute-bound
// (exchange2) benchmark. Any change to simulated timing, accounting or the
// ACE ledger moves a hash; a change meant to be behaviour-preserving must
// leave them all alone.
func TestGoldenStats(t *testing.T) {
	for _, bn := range []string{"libquantum", "mcf", "exchange2"} {
		for _, s := range goldenSchemes() {
			s, bn := s, bn
			key := bn + "/" + s.Name
			t.Run(key, func(t *testing.T) {
				t.Parallel()
				want, ok := goldenStats[key]
				if !ok {
					t.Fatalf("no golden for %s", key)
				}
				checkGolden(t, key, goldenRun(t, s, bn, nil), want)
			})
		}
	}
}

// TestGoldenStatsWithAudit pins an audited RAR run: the invariant
// checker runs every 1000 cycles and must neither fail nor perturb it.
func TestGoldenStatsWithAudit(t *testing.T) {
	st := goldenRun(t, config.RAR, "mcf", func(c *Core) { c.EnableAudit(1_000) })
	checkGolden(t, "audited mcf/RAR", st, goldenAuditStats)
}

// TestGoldenStatsWithInjection pins a RAR run carrying fault-injection
// samples: its Stats and every sample's outcome.
func TestGoldenStatsWithInjection(t *testing.T) {
	var samples []InjectSample
	for cyc := uint64(7_001); cyc < 120_000; cyc += 7_919 {
		samples = append(samples,
			InjectSample{Cycle: cyc, Structure: ace.ROB, Slot: int(cyc % 192)},
			InjectSample{Cycle: cyc + 13, Structure: ace.IQ, Slot: int(cyc % 92)},
			InjectSample{Cycle: cyc + 29, Structure: ace.LQ, Slot: int(cyc % 64)},
		)
	}
	st := goldenRun(t, config.RAR, "libquantum", func(c *Core) { c.InjectSamples(samples) })
	checkGolden(t, "injected libquantum/RAR", st, goldenInjectStats)
	checkGolden(t, "injection samples", samples, goldenInjectSample)
	resolved := 0
	for _, s := range samples {
		if s.Outcome != InjectPending {
			resolved++
		}
	}
	if resolved == 0 {
		t.Error("no injection sample resolved — the test exercised nothing")
	}
}
