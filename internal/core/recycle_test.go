package core

import (
	"fmt"
	"testing"

	"rarsim/internal/ace"
	"rarsim/internal/config"
	"rarsim/internal/mem"
	"rarsim/internal/trace"
)

// TestRecycledCoreMatchesFresh runs one heterogeneous sequence of cells
// through a single recycled core and checks each cell's full Stats (%#v)
// against the same cell on a fresh core. The sequence makes every
// recycled array shrink and grow: the back end goes core-4 → core-1 →
// baseline, the caches go baseline → larger LLC and smaller L2 → baseline,
// and the prefetcher turns on and off again. It walks every runahead
// family and ends with an audited and a fault-injected cell, so a piece of
// state that New forgets to reset shows up as a diverging cell.
func TestRecycledCoreMatchesFresh(t *testing.T) {
	scaled := config.ScaledCores()
	core1, core4 := scaled[0], scaled[3]
	bigLLC := config.Baseline()
	bigLLC.Name = "big-llc"
	bigLLC.Mem.L2Size = 128 << 10
	bigLLC.Mem.L3Size = 2 << 20

	cells := []struct {
		cfg    config.Core
		scheme config.Scheme
		bench  string
		// arm configures the core before its run; it returns a value
		// the run fills in, compared alongside Stats.
		arm func(*Core) any
	}{
		{cfg: core4, scheme: config.RAR, bench: "mcf"},
		{cfg: core1, scheme: config.OoO, bench: "libquantum"},
		{cfg: config.Baseline().WithPrefetch(mem.PrefetchAll), scheme: config.FLUSH, bench: "libquantum"},
		{cfg: bigLLC, scheme: config.TR, bench: "astar"},
		{cfg: config.Baseline(), scheme: config.PRE, bench: "mcf"},
		{cfg: core4, scheme: config.RAR, bench: "soplex", arm: func(c *Core) any {
			c.EnableAudit(500)
			return nil
		}},
		{cfg: config.Baseline(), scheme: config.RAR, bench: "libquantum", arm: func(c *Core) any {
			var samples []InjectSample
			for cyc := uint64(3_001); cyc < 40_000; cyc += 1_009 {
				samples = append(samples,
					InjectSample{Cycle: cyc, Structure: ace.ROB, Slot: int(cyc % 192)},
					InjectSample{Cycle: cyc + 7, Structure: ace.IQ, Slot: int(cyc % 92)},
				)
			}
			c.InjectSamples(samples)
			return samples
		}},
	}

	run := func(old *Core, cfg config.Core, scheme config.Scheme, b trace.Benchmark, arm func(*Core) any) (*Core, string) {
		t.Helper()
		c := New(old, cfg, scheme, b, 42)
		var armed any
		if arm != nil {
			armed = arm(c)
		}
		st, err := c.RunWarm(2_000, 10_000)
		if err != nil {
			t.Fatalf("%s/%s/%s: %v", cfg.Name, scheme.Name, b.Name, err)
		}
		return c, fmt.Sprintf("%#v\n%#v", st, armed)
	}

	var recycled *Core
	for i, cell := range cells {
		b, err := trace.ByName(cell.bench)
		if err != nil {
			t.Fatal(err)
		}
		_, want := run(nil, cell.cfg, cell.scheme, b, cell.arm)
		prev := recycled
		var got string
		recycled, got = run(prev, cell.cfg, cell.scheme, b, cell.arm)
		if prev != nil && recycled != prev {
			t.Fatalf("cell %d: New(old, ...) built a new core instead of recycling old", i)
		}
		if got != want {
			t.Errorf("cell %d (%s/%s/%s): recycled core diverges from a fresh one\nfresh:    %s\nrecycled: %s",
				i, cell.cfg.Name, cell.scheme.Name, cell.bench, want, got)
		}
	}
}
