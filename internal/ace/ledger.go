package ace

// Ledger accumulates the ACE bit-cycles of one simulation run. The core
// reports a window for every structure entry that *commits*; squashed
// state is un-ACE and is simply never reported.
//
// The ledger also owns the two monotone blocked-cycle counters used for
// Figure 5 attribution. The core calls TickBlocked once per cycle with the
// current blocking state; windows snapshot Cum() at their start and the
// core passes the overlap deltas to Add.
type Ledger struct {
	abc         [NumStructures]uint64 //rarlint:unit bitcycles
	headBlocked [NumStructures]uint64 //rarlint:unit bitcycles
	fullStall   [NumStructures]uint64 //rarlint:unit bitcycles

	cumHeadBlocked uint64 //rarlint:unit cycles
	cumFullStall   uint64 //rarlint:unit cycles

	// Optional timeline bucketing (timeline.go).
	windowCycles uint64
	nowCycle     uint64
	windows      []uint64
}

// NewLedger returns an empty ledger.
func NewLedger() *Ledger { return &Ledger{} }

// TickBlocked advances the blocked-cycle counters for one cycle.
// headBlocked is true while an LLC-miss load blocks commit at the ROB
// head; fullStall additionally requires the ROB to be full. fullStall
// implies headBlocked.
func (l *Ledger) TickBlocked(headBlocked, fullStall bool) {
	if headBlocked {
		l.cumHeadBlocked++
	}
	if fullStall {
		l.cumFullStall++
	}
}

// Cum returns the current blocked-cycle counter values. The core snapshots
// these at each window-start event (dispatch, issue, writeback).
//
//rarlint:pure
func (l *Ledger) Cum() (headBlocked, fullStall uint64) {
	return l.cumHeadBlocked, l.cumFullStall
}

// Add records a committed vulnerability window: bits exposed for cycles,
// of which hbOverlap cycles fell inside ROB-head-blocked intervals and
// fsOverlap inside full-ROB-stall intervals.
func (l *Ledger) Add(s Structure, bits, cycles, hbOverlap, fsOverlap uint64) {
	l.abc[s] += bits * cycles
	l.headBlocked[s] += bits * hbOverlap
	l.fullStall[s] += bits * fsOverlap
	if l.windowCycles != 0 {
		l.bookWindow(bits * cycles)
	}
}

// ABC returns the per-structure ACE bit counts.
//
//rarlint:pure
func (l *Ledger) ABC() [NumStructures]uint64 { return l.abc }

// TotalABC returns the run's total ACE bit count (Equation 1).
//
//rarlint:pure
//rarlint:unit bitcycles
func (l *Ledger) TotalABC() uint64 {
	var t uint64
	for _, v := range l.abc {
		t += v
	}
	return t
}

// HeadBlockedABC returns the ACE bit count exposed while an LLC-miss load
// blocked the ROB head (the 'ROB head blocked' bar of Figure 5).
//
//rarlint:pure
//rarlint:unit bitcycles
func (l *Ledger) HeadBlockedABC() uint64 {
	var t uint64
	for _, v := range l.headBlocked {
		t += v
	}
	return t
}

// FullStallABC returns the ACE bit count exposed during full-ROB stalls
// (the 'full-ROB stall' bar of Figure 5).
//
//rarlint:pure
//rarlint:unit bitcycles
func (l *Ledger) FullStallABC() uint64 {
	var t uint64
	for _, v := range l.fullStall {
		t += v
	}
	return t
}

// AVF returns the architectural vulnerability factor of a run
// (Equation 2): ABC / (N × T).
//
//rarlint:pure
//rarlint:unit 1
func AVF(abc, totalBits, cycles uint64) float64 {
	if totalBits == 0 || cycles == 0 {
		return 0
	}
	return float64(abc) / (float64(totalBits) * float64(cycles))
}

// MTTFRel returns the mean-time-to-failure of a scheme relative to a
// baseline (higher is better). From Equations 2–4, with the raw error
// rate and bit count N identical across schemes on the same core:
//
//	MTTF_rel = AVF_base / AVF_scheme
//	         = (ABC_base / ABC_scheme) × (T_scheme / T_base)
//
// The runtime ratio is what makes the paper's PRE result subtle: PRE
// reduces ABC by ~28% but also runtime by a similar factor, leaving MTTF
// flat, while RAR reduces ABC far more than runtime and wins 4.8×.
//
//rarlint:pure
//rarlint:unit 1
func MTTFRel(abcBase, cycBase, abcScheme, cycScheme uint64) float64 {
	if abcScheme == 0 || cycBase == 0 {
		return 0
	}
	return (float64(abcBase) / float64(abcScheme)) *
		(float64(cycScheme) / float64(cycBase))
}
