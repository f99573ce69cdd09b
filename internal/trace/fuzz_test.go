package trace

import (
	"bytes"
	"testing"

	"rarsim/internal/isa"
)

// FuzzReadTrace feeds ReadTrace arbitrary bytes, seeded with the hostile
// inputs of TestTraceErrors, TestReadTraceHostileCount and
// TestReadTraceTruncated plus one intact trace. Every input must either
// fail to parse or yield a FileSource that replays and synthesises 1k
// instructions of each kind without panicking.
func FuzzReadTrace(f *testing.F) {
	b, err := ByName("gems")
	if err != nil {
		f.Fatal(err)
	}
	var whole bytes.Buffer
	if err := WriteTrace(&whole, b.Name, New(b, 7), 100); err != nil {
		f.Fatal(err)
	}
	f.Add(whole.Bytes())
	for _, cut := range []int{1, recordBytes / 2, 50 * recordBytes} {
		f.Add(whole.Bytes()[:whole.Len()-cut])
	}
	for _, count := range []uint64{1 << 60, 1 << 40, ^uint64(0)} {
		f.Add(hostileHeader(count))
	}
	f.Add([]byte("short"))
	f.Add(append([]byte("BADMAG"), make([]byte, 18)...))

	f.Fuzz(func(t *testing.T, data []byte) {
		fs, err := ReadTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		if fs.Len() == 0 {
			t.Fatal("ReadTrace accepted a trace with no instructions")
		}
		block := make([]isa.Inst, 1000)
		fs.NextBlock(block)
		fs.WrongPathBlock(block, block[len(block)-1].Target)
	})
}
