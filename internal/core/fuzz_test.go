package core

import (
	"testing"
	"testing/quick"

	"rarsim/internal/config"
	"rarsim/internal/trace"
)

// TestRandomProgramsRun drives arbitrary valid programs through the two
// extreme schemes with the invariant auditor armed: whatever the
// instruction mix, the pipeline must commit exactly the requested count
// without deadlocking or corrupting its bookkeeping.
func TestRandomProgramsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzz sweep")
	}
	f := func(raw []byte, seed uint64) bool {
		b := trace.RandomBenchmark(raw)
		for _, s := range []config.Scheme{config.OoO, config.RAR} {
			c := New(nil, config.Baseline(), s, b, seed)
			c.EnableAudit(256)
			st, err := c.Run(4_000)
			if err != nil || st.Committed != 4_000 {
				t.Logf("scheme %s: err=%v committed=%d raw=%v", s.Name, err, st.Committed, raw)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
