package trace

import (
	"bytes"
	"testing"
	"testing/quick"

	"rarsim/internal/isa"
)

// collectBlocks drains n instructions from g through NextBlock using the
// given (possibly hostile) block-size schedule, cycling through sizes.
// Zero-sized blocks are legal no-ops and must not advance the stream.
func collectBlocks(g BlockSource, n int, sizes []int) []isa.Inst {
	out := make([]isa.Inst, 0, n)
	si := 0
	for len(out) < n {
		sz := sizes[si%len(sizes)]
		si++
		if sz > n-len(out) {
			sz = n - len(out)
		}
		blk := make([]isa.Inst, sz)
		g.NextBlock(blk)
		out = append(out, blk...)
	}
	return out
}

// TestNextBlockMatchesScalar pins the BlockSource contract on every
// compiled-in benchmark: NextBlock must be byte-identical to N scalar Next
// calls, for friendly and hostile block sizes alike (0, 1, a prime, and a
// block far larger than any consumer ring).
func TestNextBlockMatchesScalar(t *testing.T) {
	const n = 20_000
	sizeTables := [][]int{
		{1},           // degenerate: block face driven scalar
		{0, 1, 0, 1},  // zero-length no-ops interleaved
		{64},          // the stream buffer's refill block
		{7, 0, 33, 1}, // misaligned mix
		{4096},        // larger than any ring capacity
	}
	for _, b := range All() {
		scalar := collect(New(b, 42), n)
		for _, sizes := range sizeTables {
			got := collectBlocks(New(b, 42), n, sizes)
			for i := range scalar {
				if got[i] != scalar[i] {
					t.Fatalf("%s sizes=%v: block stream diverges at %d:\nblock:  %v\nscalar: %v",
						b.Name, sizes, i, got[i], scalar[i])
				}
			}
		}
	}
}

// TestNextBlockInterleavesWithScalar: block and scalar reads of the same
// generator must interleave freely — the walk state after NextBlock(dst)
// is exactly that of len(dst) Next calls.
func TestNextBlockInterleavesWithScalar(t *testing.T) {
	const n = 10_000
	want := collect(New(testBench(), 9), n)
	g := New(testBench(), 9)
	got := make([]isa.Inst, 0, n)
	step := 0
	for len(got) < n {
		if step%2 == 0 {
			var in isa.Inst
			g.Next(&in)
			got = append(got, in)
		} else {
			sz := 1 + step%17
			if sz > n-len(got) {
				sz = n - len(got)
			}
			blk := make([]isa.Inst, sz)
			g.NextBlock(blk)
			got = append(got, blk...)
		}
		step++
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("interleaved stream diverges at %d: %v vs %v", i, got[i], want[i])
		}
	}
}

// TestWrongPathBlockMatchesScalar: the wrong-path synthesiser's batch face
// must consume the RNG in exactly the scalar order, across episodes with
// varying batch shapes.
func TestWrongPathBlockMatchesScalar(t *testing.T) {
	scalar := New(testBench(), 5)
	block := New(testBench(), 5)
	pc := uint64(0x4000_0000)
	for ep := 0; ep < 200; ep++ {
		k := 1 + ep%7
		want := make([]isa.Inst, k)
		for i := range want {
			scalar.WrongPath(&want[i], pc+uint64(i)*isa.InstBytes)
		}
		got := make([]isa.Inst, k)
		block.WrongPathBlock(got, pc)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("episode %d: wrong-path block diverges at %d: %v vs %v", ep, i, got[i], want[i])
			}
		}
		pc += uint64(k+3) * isa.InstBytes
	}
}

// TestNextBlockMatchesScalarFuzz is the adversarial sweep: arbitrary valid
// benchmarks, random seeds and random block schedules must all stay
// byte-identical to the scalar walk.
func TestNextBlockMatchesScalarFuzz(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzz sweep")
	}
	f := func(raw []byte, seed uint64, szSeed uint8) bool {
		b := RandomBenchmark(raw)
		const n = 4_000
		sizes := []int{int(szSeed) % 97, 1, int(szSeed)%5 + 1, 256}
		scalar := collect(New(b, seed), n)
		got := collectBlocks(New(b, seed), n, sizes)
		for i := range scalar {
			if got[i] != scalar[i] {
				t.Logf("raw=%v seed=%d sizes=%v: diverges at %d", raw, seed, sizes, i)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestFileSourceBlockMatchesScalar covers the replay path: a recorded
// trace read back in blocks (including blocks spanning the loop wrap) must
// match the scalar replay.
func TestFileSourceBlockMatchesScalar(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTrace(&buf, "blk", New(testBench(), 3), 997); err != nil {
		t.Fatal(err)
	}
	mk := func() *FileSource {
		fs, err := ReadTrace(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		return fs
	}
	const n = 5_000 // several wraps of the 997-record loop
	scalar := mk()
	want := make([]isa.Inst, n)
	for i := range want {
		scalar.Next(&want[i])
	}
	got := collectBlocks(mk(), n, []int{0, 64, 1, 250})
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("file replay diverges at %d: %v vs %v", i, got[i], want[i])
		}
	}
}

// BenchmarkGeneratorNext measures one-instruction synthesis through the
// generator's concrete Next, the reference walk NextBlock batches.
func BenchmarkGeneratorNext(b *testing.B) {
	bm, err := ByName("x264")
	if err != nil {
		b.Fatal(err)
	}
	g := New(bm, 42)
	var in isa.Inst
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Next(&in)
	}
}

// BenchmarkGeneratorNextBlock measures batched synthesis — one interface
// call per 64-instruction block, filling a caller-owned slice in place.
func BenchmarkGeneratorNextBlock(b *testing.B) {
	bm, err := ByName("x264")
	if err != nil {
		b.Fatal(err)
	}
	var src BlockSource = New(bm, 42)
	blk := make([]isa.Inst, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += len(blk) {
		src.NextBlock(blk)
	}
}
