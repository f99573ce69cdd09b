// Package trace synthesizes the dynamic instruction streams the simulated
// core executes.
//
// The paper evaluates on 500M-instruction SimPoints of SPEC CPU2006/2017.
// Those binaries and traces are proprietary, so this package substitutes
// deterministic synthetic workloads: each benchmark the paper names is
// modelled as a small "program" of looping kernels whose instruction mix,
// dependence structure, memory-access pattern, and branch behaviour
// reproduce the characteristics the paper's analysis relies on — LLC MPKI
// band, pointer-chasing versus streaming memory-level parallelism,
// branch mispredictions in the shadow of LLC misses (mcf, gcc), and
// issue-queue pressure from long floating-point dependence chains (lbm).
// See DESIGN.md §1 for the substitution rationale.
//
// A Generator walks the program and fills caller-owned blocks of isa.Inst
// records (BlockSource). Generation is pure and seeded: the same
// (Benchmark, seed) always produces the same stream, byte for byte.
package trace

import "rarsim/internal/isa"

// Pattern selects how a memory stream produces addresses.
type Pattern uint8

const (
	// Seq walks the stream's region sequentially with a fixed small
	// stride (streaming: libquantum-, lbm-style). Consecutive accesses
	// usually hit the same cache line; a new line is touched every
	// line/stride accesses and misses if the region exceeds the LLC.
	Seq Pattern = iota
	// Strided walks the region with a large stride so that every access
	// touches a new line (leslie3d-, milc-style). Highly prefetchable.
	Strided
	// Chase performs a dependent pointer chase: the address of each
	// access is unpredictable and, crucially, the load *register-depends*
	// on the previous load of the same stream, serialising the misses
	// (mcf-, astar-style). MLP within one chase stream is 1.
	Chase
	// Rand picks uniformly random lines in the region with no
	// inter-access dependence (gcc-style scattered accesses). Misses are
	// independent, so random streams expose MLP but defeat prefetchers.
	Rand
)

// String returns the pattern name.
func (p Pattern) String() string {
	switch p {
	case Seq:
		return "seq"
	case Strided:
		return "strided"
	case Chase:
		return "chase"
	case Rand:
		return "rand"
	}
	return "pattern?"
}

// StreamSpec describes one memory-access stream of a kernel.
type StreamSpec struct {
	// Pattern is the address pattern.
	Pattern Pattern
	// Region is the working-set size in bytes touched by the stream.
	// Regions larger than the last-level cache produce LLC misses.
	Region uint64
	// Stride is the per-access address increment for Seq and Strided
	// patterns, in bytes. Ignored for Chase and Rand.
	Stride uint64
}

// Op is one static instruction slot in a kernel body. A kernel body is a
// loop: the generator emits the body repeatedly, binding fresh destination
// registers and stream addresses on every iteration.
type Op struct {
	// Class is the instruction class emitted for this slot.
	Class isa.Class

	// Dep1 and Dep2 wire the sources: a positive value d means "source =
	// destination of the instruction emitted d dynamic slots earlier".
	// Zero leaves the source absent (immediate operand). Chase-stream
	// loads additionally have their first source forced to the previous
	// load of the same stream, regardless of Dep1.
	Dep1, Dep2 int

	// Stream indexes the kernel's StreamSpec list for loads and stores.
	Stream int

	// Fp marks loads whose destination lives in the floating-point file
	// (and is consumed by FP arithmetic).
	Fp bool

	// TakenProb is the probability a conditional branch in this slot is
	// taken. It only applies to Branch slots that are not the loop
	// back-edge (the generator appends the back-edge itself).
	TakenProb float64

	// DepLoad makes a branch register-depend on the most recent load in
	// the kernel, so it cannot resolve before that load returns — the
	// "misprediction in the shadow of an LLC miss" behaviour of mcf and
	// gcc (§II-C).
	DepLoad bool

	// SkipLen is the number of subsequent body slots skipped when the
	// branch is taken (a forward hammock). Must leave at least one slot
	// before the end of the body.
	SkipLen int
}

// Kernel is one inner loop of a benchmark program.
type Kernel struct {
	// Name identifies the kernel in debug output.
	Name string
	// Body is the static loop body. The generator appends a back-edge
	// branch after the last slot; don't add one explicitly.
	Body []Op
	// Iterations is the loop trip count per activation: the back-edge is
	// taken Iterations-1 times, then falls through to the next kernel.
	// Trip counts make the back-edge highly predictable, as in real code.
	Iterations int
	// Weight is the relative share of activations this kernel receives
	// when the program cycles through its kernels.
	Weight int
	// Streams lists the memory streams the body's mem ops reference.
	Streams []StreamSpec
}

// Benchmark is a complete synthetic workload.
type Benchmark struct {
	// Name is the benchmark's (paper) name, e.g. "mcf".
	Name string
	// MemoryIntensive classifies the benchmark per the paper's MPKI>8
	// rule. The classification is asserted by tests against the measured
	// MPKI on the baseline core.
	MemoryIntensive bool
	// Kernels composes the program.
	Kernels []Kernel
}
