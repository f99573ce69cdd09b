package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rarsim/internal/isa"
)

func TestTraceRoundTrip(t *testing.T) {
	b, err := ByName("gems")
	if err != nil {
		t.Fatal(err)
	}
	const n = 5000
	var buf bytes.Buffer
	if err := WriteTrace(&buf, b.Name, New(b, 7), n); err != nil {
		t.Fatal(err)
	}
	fs, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if fs.Name() != "gems" || fs.Len() != n {
		t.Fatalf("name=%q len=%d", fs.Name(), fs.Len())
	}
	// Replayed instructions must be byte-identical to a fresh generation.
	ref := New(b, 7)
	var want, got isa.Inst
	for i := 0; i < n; i++ {
		ref.Next(&want)
		fs.Next(&got)
		if want != got {
			t.Fatalf("record %d differs:\n  want %+v\n  got  %+v", i, want, got)
		}
	}
	// The source loops: the next instruction is record 0 again.
	fs.Next(&got)
	fs2, _ := ReadTrace(mustTrace(t, b, 1))
	fs2.Next(&want)
	if got.PC != want.PC {
		t.Error("trace did not loop to the start")
	}
}

// goldenTraceBytes pins the FNV-1a hash of the file WriteTrace records
// for gems at seed 42, 10k instructions.
const goldenTraceBytes = "85cefb64c03729ea"

// TestWriteTraceGolden pins the exact bytes WriteTrace produces: header,
// wrong-path parameters and every record. A change to how WriteTrace reads
// its source must leave the recorded file alone.
func TestWriteTraceGolden(t *testing.T) {
	b, err := ByName("gems")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, b.Name, New(b, 42), 10_000); err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(buf.Bytes())
	if got := fmt.Sprintf("%016x", h.Sum64()); got != goldenTraceBytes {
		t.Errorf("trace bytes hash %s, golden %s", got, goldenTraceBytes)
	}
}

func mustTrace(t *testing.T, b Benchmark, n uint64) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteTrace(&buf, b.Name, New(b, 7), n); err != nil {
		t.Fatal(err)
	}
	return &buf
}

func TestTraceFileGzip(t *testing.T) {
	b, err := ByName("x264")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	plain := filepath.Join(dir, "t.trace")
	zipped := filepath.Join(dir, "t.trace.gz")
	if err := WriteTraceFile(plain, b.Name, New(b, 3), 2000); err != nil {
		t.Fatal(err)
	}
	if err := WriteTraceFile(zipped, b.Name, New(b, 3), 2000); err != nil {
		t.Fatal(err)
	}
	a, err := OpenTraceFile(plain)
	if err != nil {
		t.Fatal(err)
	}
	z, err := OpenTraceFile(zipped)
	if err != nil {
		t.Fatal(err)
	}
	var ia, iz isa.Inst
	for i := 0; i < 2000; i++ {
		a.Next(&ia)
		z.Next(&iz)
		if ia != iz {
			t.Fatalf("gzip round-trip differs at %d", i)
		}
	}
}

func TestTraceErrors(t *testing.T) {
	if _, err := ReadTrace(bytes.NewReader([]byte("short"))); err == nil {
		t.Error("short header must error")
	}
	if _, err := ReadTrace(bytes.NewReader(append([]byte("BADMAG"), make([]byte, 18)...))); err == nil {
		t.Error("bad magic must error")
	}
	if _, err := OpenTraceFile("/nonexistent/x.trace"); err == nil {
		t.Error("missing file must error")
	}
}

// hostileHeader builds a syntactically valid trace header claiming count
// records and carrying no body at all.
func hostileHeader(count uint64) []byte {
	head := []byte(traceMagic)
	var hdr [34]byte
	binary.LittleEndian.PutUint16(hdr[0:2], traceVersion)
	binary.LittleEndian.PutUint64(hdr[2:10], count)
	binary.LittleEndian.PutUint64(hdr[26:34], 0) // empty name
	return append(head, hdr[:]...)
}

// TestReadTraceHostileCount: the count field is attacker-controlled, so a
// header claiming 2^60 records backed by nothing must fail with a parse
// error — not commit petabytes of memory up front and die on an
// allocation panic the caller cannot recover from.
func TestReadTraceHostileCount(t *testing.T) {
	for _, count := range []uint64{1 << 60, 1 << 40, ^uint64(0)} {
		fs, err := ReadTrace(bytes.NewReader(hostileHeader(count)))
		if err == nil {
			t.Fatalf("count=%d: hostile header must error, got %d insts", count, fs.Len())
		}
		if !strings.Contains(err.Error(), "short record") {
			t.Errorf("count=%d: want a short-record parse error, got: %v", count, err)
		}
	}
}

// TestReadTraceTruncated: a real trace chopped mid-body must surface a
// short-record error naming how far the parse got, never a panic or a
// silently shortened replay.
func TestReadTraceTruncated(t *testing.T) {
	b, err := ByName("gems")
	if err != nil {
		t.Fatal(err)
	}
	whole := mustTrace(t, b, 100).Bytes()
	for _, cut := range []int{1, recordBytes / 2, 50 * recordBytes} {
		_, err := ReadTrace(bytes.NewReader(whole[:len(whole)-cut]))
		if err == nil {
			t.Fatalf("cut=%d: truncated trace must error", cut)
		}
		if !strings.Contains(err.Error(), "short record") {
			t.Errorf("cut=%d: want a short-record error, got: %v", cut, err)
		}
	}
}

// TestWriteTraceFileAtomic: a failed write must leave the target path
// exactly as it was — no partial file, no leftover temp files — and a
// successful write must replace an existing file in one step. This pins
// the temp-file+rename discipline WriteTraceFile shares with the
// simulation cache's diskStore.
func TestWriteTraceFileAtomic(t *testing.T) {
	dir := t.TempDir()
	target := filepath.Join(dir, "out.trace")
	if err := os.WriteFile(target, []byte("precious"), 0o644); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("disk full")
	if err := atomicWriteFile(target, func(w io.Writer) error {
		if _, err := w.Write([]byte("partial garbage")); err != nil {
			return err
		}
		return boom
	}); !errors.Is(err, boom) {
		t.Fatalf("injected write failure must surface, got: %v", err)
	}
	got, err := os.ReadFile(target)
	if err != nil || string(got) != "precious" {
		t.Fatalf("failed write must leave the target untouched, got %q, %v", got, err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("failed write must clean up its temp file, dir has %d entries", len(ents))
	}
	// The success path replaces the old content wholesale.
	b, err := ByName("x264")
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteTraceFile(target, b.Name, New(b, 3), 50); err != nil {
		t.Fatal(err)
	}
	fs, err := OpenTraceFile(target)
	if err != nil {
		t.Fatal(err)
	}
	if fs.Len() != 50 {
		t.Fatalf("replaced trace has %d insts, want 50", fs.Len())
	}
}

func TestFileSourceWrongPath(t *testing.T) {
	b, _ := ByName("gems")
	fs, err := ReadTrace(mustTrace(t, b, 100))
	if err != nil {
		t.Fatal(err)
	}
	var in isa.Inst
	fs.WrongPath(&in, 0x999000)
	if !in.WrongPath || in.PC != 0x999000 {
		t.Errorf("wrong-path synthesis: %+v", in)
	}
}
