package core

import (
	"bytes"
	"encoding/binary"
	"strings"
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

// FuzzRunTrace runs every trace that trace.ReadTrace accepts through the
// core under the two extreme schemes. A recorded stream may hold any
// register numbers, addresses and branch outcomes, so the core must
// commit the requested instructions or stop with its watchdog's deadlock
// error — never panic. Seeded with FuzzReadTrace's seeds plus a longer
// recorded gems trace.
func FuzzRunTrace(f *testing.F) {
	b, err := trace.ByName("gems")
	if err != nil {
		f.Fatal(err)
	}
	record := func(seed, n uint64) []byte {
		var buf bytes.Buffer
		if err := trace.WriteTrace(&buf, b.Name, trace.New(b, seed), n); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	whole := record(7, 100)
	f.Add(whole)
	for _, cut := range []int{1, 16, 50 * 32} {
		f.Add(whole[:len(whole)-cut])
	}
	for _, count := range []uint64{1 << 60, 1 << 40, ^uint64(0)} {
		// A header claiming count records, with an empty name and no body.
		hdr := append([]byte("RARTRC"), make([]byte, 34)...)
		binary.LittleEndian.PutUint16(hdr[6:8], 1)
		binary.LittleEndian.PutUint64(hdr[8:16], count)
		f.Add(hdr)
	}
	f.Add([]byte("short"))
	f.Add(append([]byte("BADMAG"), make([]byte, 18)...))
	f.Add(record(42, 1_000))

	f.Fuzz(func(t *testing.T, data []byte) {
		if _, err := trace.ReadTrace(bytes.NewReader(data)); err != nil {
			return
		}
		for _, s := range []config.Scheme{config.OoO, config.RAR} {
			fs, err := trace.ReadTrace(bytes.NewReader(data))
			if err != nil {
				t.Fatalf("second parse of an accepted trace failed: %v", err)
			}
			c := NewFromSource(config.Baseline(), s, fs.Name(), fs)
			st, err := c.Run(2_000)
			if err != nil {
				if !strings.HasPrefix(err.Error(), "core: deadlock:") {
					t.Fatalf("%s: %v", s.Name, err)
				}
				continue
			}
			if st.Committed != 2_000 {
				t.Fatalf("%s: committed %d of 2000", s.Name, st.Committed)
			}
		}
	})
}
