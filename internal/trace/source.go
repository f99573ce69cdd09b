package trace

import "rarsim/internal/isa"

// BlockSource supplies a dynamic instruction stream to the simulated core,
// a caller-owned slice at a time: the correct path via NextBlock and
// synthetic wrong-path filler via WrongPathBlock. Generator (synthetic
// workloads) and FileSource (recorded traces) both implement it. A
// zero-length dst is a no-op.
type BlockSource interface {
	// NextBlock fills dst with the next len(dst) correct-path
	// instructions. The stream is infinite; sources over finite
	// recordings loop.
	NextBlock(dst []isa.Inst)
	// WrongPathBlock fills dst with len(dst) consecutive plausible
	// wrong-path instructions starting at pc (PCs advance by
	// isa.InstBytes), used when fetch runs down a mispredicted,
	// non-reconvergent path.
	WrongPathBlock(dst []isa.Inst, pc uint64)
}

// wpSynth synthesises wrong-path instructions: a mix of ALU work and
// scattered loads into a hot region, using scratch registers that never
// alias correct-path dependences. Shared by Generator and FileSource.
type wpSynth struct {
	rnd  *rng
	ring [8]isa.Reg
	pos  int
	seed uint64
	base uint64
}

func newWpSynth(seed, base uint64) *wpSynth {
	return &wpSynth{rnd: newRNG(seed ^ 0xDEADBEEF), seed: seed, base: base}
}

// params returns the synthesiser's construction parameters, so trace
// recordings can reproduce the exact same wrong-path stream on replay.
func (w *wpSynth) params() (seed, base uint64) { return w.seed, w.base }

// wrongPathBlock synthesises len(dst) consecutive wrong-path instructions
// starting at pc, consuming the synthesiser's RNG exactly as len(dst)
// wrongPath calls would. Callers must only request instructions that will
// all actually be fetched: the RNG state is shared across wrong-path
// episodes, so over-generating would perturb later episodes.
func (w *wpSynth) wrongPathBlock(dst []isa.Inst, pc uint64) {
	for i := range dst {
		w.wrongPath(&dst[i], pc)
		pc += isa.InstBytes
	}
}

func (w *wpSynth) wrongPath(in *isa.Inst, pc uint64) {
	*in = isa.Inst{
		PC:        pc,
		Src1:      isa.NoReg,
		Src2:      isa.NoReg,
		Dest:      isa.NoReg,
		WrongPath: true,
	}
	roll := w.rnd.intn(100)
	switch {
	case roll < 50:
		in.Class = isa.IntAlu
		in.Dest = w.allocDest(false)
		in.Src1 = w.ring[w.rnd.intn(len(w.ring))]
	case roll < 60:
		// Wrong-path loads touch the hot working set: mostly cache hits,
		// occasional pollution, as on real mispredicted paths.
		in.Class = isa.Load
		region := uint64(128 << 10)
		in.Addr = w.base + (w.rnd.next64()%(region/CacheLine))*CacheLine
		in.Size = 8
		in.Dest = w.allocDest(false)
	case roll < 70:
		in.Class = isa.FpAdd
		in.Dest = w.allocDest(true)
	case roll < 80:
		in.Class = isa.Branch
		in.Taken = false
		in.Target = pc + isa.InstBytes
	default:
		in.Class = isa.IntAlu
		in.Dest = w.allocDest(false)
	}
	if in.Dest.Valid() {
		w.ring[w.pos] = in.Dest
		w.pos = (w.pos + 1) % len(w.ring)
	}
}

// allocDest hands out scratch registers r24..r31 / f24..f31.
func (w *wpSynth) allocDest(fp bool) isa.Reg {
	n := isa.Reg(w.rnd.intn(8))
	if fp {
		return isa.FirstFpReg + 24 + n
	}
	return 24 + n
}
