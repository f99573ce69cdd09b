package isa

import "fmt"

// Inst is one dynamic instruction as produced by a workload generator.
//
// An Inst is a value type: the pipeline copies it into its own bookkeeping
// structures (ROB entries and so on) and never mutates the generator's copy.
// Addresses and branch outcomes are resolved by the generator — the simulated
// core is a timing model, not a functional emulator — but the core only
// *learns* them at the pipeline stage where real hardware would (address
// generation for memory ops, execute for branches).
type Inst struct {
	// PC is the (synthetic) program counter of the instruction. Generators
	// assign stable PCs so that PC-indexed structures — the branch
	// predictor, the stalling slice table (SST), the prefetcher — see
	// realistic locality.
	PC uint64

	// Class is the instruction class.
	Class Class

	// Src1, Src2 are source operands; NoReg if absent.
	Src1, Src2 Reg

	// Dest is the destination register; it must be set to NoReg
	// explicitly when the instruction produces no register result
	// (stores, branches, NOPs) — the zero value names r0. Generators
	// always initialise all three operand fields.
	Dest Reg

	// Addr is the effective address for loads and stores.
	Addr uint64

	// Size is the access size in bytes for loads and stores.
	Size uint8

	// Taken is the resolved direction for branches.
	Taken bool

	// Target is the resolved target for taken branches; for not-taken
	// branches it is the fall-through PC.
	Target uint64

	// WrongPath marks instructions injected by the front-end while
	// fetching down a mispredicted path. Wrong-path instructions occupy
	// pipeline resources but are squashed and therefore un-ACE.
	WrongPath bool
}

// HasDest reports whether the instruction writes a register.
func (in *Inst) HasDest() bool { return in.Dest.Valid() }

// IsLoad reports whether the instruction is a load.
func (in *Inst) IsLoad() bool { return in.Class == Load }

// IsStore reports whether the instruction is a store.
func (in *Inst) IsStore() bool { return in.Class == Store }

// IsBranch reports whether the instruction is a branch.
func (in *Inst) IsBranch() bool { return in.Class == Branch }

// IsMem reports whether the instruction accesses data memory.
func (in *Inst) IsMem() bool { return in.Class.IsMem() }

// IsNop reports whether the instruction is a NOP.
func (in *Inst) IsNop() bool { return in.Class == Nop }

// FallThrough returns the next sequential PC.
func (in *Inst) FallThrough() uint64 { return in.PC + InstBytes }

// NextPC returns the PC control flow continues at after this instruction:
// the branch target for taken branches, the fall-through PC otherwise.
func (in *Inst) NextPC() uint64 {
	if in.IsBranch() && in.Taken {
		return in.Target
	}
	return in.FallThrough()
}

// String renders a compact disassembly-like form, useful in tests and
// debug traces.
func (in *Inst) String() string {
	switch {
	case in.IsLoad():
		return fmt.Sprintf("%#x: load %s <- [%#x]", in.PC, in.Dest, in.Addr)
	case in.IsStore():
		return fmt.Sprintf("%#x: store [%#x] <- %s", in.PC, in.Addr, in.Src1)
	case in.IsBranch():
		dir := "nt"
		if in.Taken {
			dir = "t"
		}
		return fmt.Sprintf("%#x: branch %s -> %#x", in.PC, dir, in.Target)
	default:
		return fmt.Sprintf("%#x: %s %s <- %s,%s", in.PC, in.Class, in.Dest, in.Src1, in.Src2)
	}
}

// InstBytes is the fixed encoded size of one instruction. Synthetic PCs
// advance by this much between sequential instructions.
const InstBytes = 4
