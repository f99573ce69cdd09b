package core

import (
	"testing"

	"rarsim/internal/config"
	"rarsim/internal/trace"
)

// TestAuditAllSchemes runs every mechanism with the invariant checker
// armed: register conservation, ROB ordering, queue capacities and mode
// coherence are validated every 64 cycles across wrong paths, flushes,
// runahead entries/exits and aborts.
func TestAuditAllSchemes(t *testing.T) {
	if testing.Short() {
		t.Skip("audit sweep is slow")
	}
	for _, bn := range []string{"libquantum", "mcf", "gcc", "lbm"} {
		for _, s := range append(config.Schemes(), config.TR, config.TREarly, config.PREEarly) {
			bn, s := bn, s
			t.Run(bn+"/"+s.Name, func(t *testing.T) {
				t.Parallel()
				b, err := trace.ByName(bn)
				if err != nil {
					t.Fatal(err)
				}
				c := New(nil, config.Baseline(), s, b, 11)
				c.EnableAudit(64)
				if _, err := c.Run(30_000); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}
