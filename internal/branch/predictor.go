package branch

import "rarsim/internal/reuse"

// Predictor is the full direction predictor: TAGE + loop predictor + a
// small statistical-corrector-style confidence filter, plus the speculative
// history interface the core uses for squash recovery.

const (
	scTables = 2
	logSC    = 9 // 512 entries per SC table
	scThresh = 5
)

var scHistLens = []int{8, 21}

// Predictor is the core-facing branch direction predictor. It is not safe
// for concurrent use; each simulated core owns one.
type Predictor struct {
	tage *tage
	loop loopPredictor
	sc   [scTables][]int8

	predictions uint64
}

// NewPredictor returns a freshly initialised predictor.
func NewPredictor() *Predictor { return ReusePredictor(nil) }

// ReusePredictor is NewPredictor rebuilt into old, a predictor whose run
// has finished: every table, counter and history register is reset, the
// table arrays in place. The result predicts exactly as a fresh predictor
// does. A nil old builds a fresh predictor.
func ReusePredictor(old *Predictor) *Predictor {
	p := old
	if p == nil {
		p = new(Predictor)
	}
	sc := p.sc
	*p = Predictor{tage: reuseTAGE(p.tage)}
	for i := range p.sc {
		p.sc[i] = reuse.Zeroed(sc[i], 1<<logSC)
	}
	return p
}

// Predict returns the predicted direction for the conditional branch at pc
// and an Info token that must be returned to Update at commit time.
// Predict speculatively shifts the predicted outcome into the global
// history; use Snapshot/Restore to rewind on squash.
func (p *Predictor) Predict(pc uint64) (bool, Info) {
	pred, info := p.PredictNoShift(pc)
	p.ShiftHistory(pred, pc)
	return pred, info
}

// PredictNoShift computes the prediction without shifting it into the
// speculative history. It lets the core look at the prediction first and
// take a history Snapshot only when it will actually need one (the
// simulator knows the true outcome at fetch, so only mispredicted
// branches are ever rewound) before committing the shift with
// ShiftHistory. PredictNoShift followed by ShiftHistory(pred, pc) is
// exactly Predict.
func (p *Predictor) PredictNoShift(pc uint64) (bool, Info) {
	var info Info
	pred := p.tage.predict(pc, &info)

	// Statistical corrector: a compact GEHL vote that may overturn a
	// low-confidence TAGE prediction. Confident TAGE predictions (a
	// saturated provider counter) are never overridden — unconditional
	// correction costs more than it saves (the "SC" of TAGE-SC-L is
	// similarly confidence-gated).
	var sum int32
	for i := 0; i < scTables; i++ {
		idx := p.scIndex(pc, i)
		info.scIdx[i] = idx
		sum += int32(p.sc[i][idx])
	}
	if pred {
		sum += 2
	} else {
		sum -= 2
	}
	info.scSum = sum
	if p.tageWeak(&info) {
		if sum >= scThresh {
			info.scUsed = !pred
			pred = true
		} else if sum <= -scThresh {
			info.scUsed = pred
			pred = false
		}
	}

	// Loop predictor overrides everything once confident.
	if lpPred, confident := p.loop.predict(pc, &info); confident {
		pred = lpPred
	}

	info.PredTaken = pred
	return pred, info
}

// ShiftHistory speculatively shifts a prediction made by PredictNoShift
// into the global history and counts the prediction.
func (p *Predictor) ShiftHistory(pred bool, pc uint64) {
	p.hist().shift(pred, pc, historyLens)
	p.predictions++
}

// tageWeak reports whether the TAGE prediction came from a weak counter
// (or the bare bimodal table) and is therefore eligible for statistical
// correction.
func (p *Predictor) tageWeak(info *Info) bool {
	if info.provider < 0 {
		c := p.tage.bimodal[info.bimIdx]
		return c == 0 || c == -1
	}
	c := p.tage.tables[info.provider][info.idx[info.provider]].ctr
	return c >= -2 && c <= 1
}

func (p *Predictor) scIndex(pc uint64, table int) uint32 {
	// The corrector's history lengths all fit inside the recent-64 mirror,
	// so the fold walks a register instead of ring lookups per bit. The
	// recurrence itself is serial by construction (each step folds the
	// running hash), but each step is now two shifts and an or.
	r := p.hist().recent
	var fold uint32
	for d := scHistLens[table]; d > 0; d-- {
		fold = (fold << 1) | uint32(r&1)
		fold ^= fold >> logSC
		r >>= 1
	}
	return (uint32(pc>>2) ^ fold ^ uint32(table)<<5) & ((1 << logSC) - 1)
}

// Update trains all components with the committed outcome of the branch at
// pc. info must be the token Predict produced for this dynamic instance.
// Only committed (correct-path) branches may be passed to Update.
func (p *Predictor) Update(pc uint64, taken bool, info Info) {
	p.tage.update(pc, taken, &info)
	p.loop.update(pc, taken, &info)
	for i := 0; i < scTables; i++ {
		c := &p.sc[i][info.scIdx[i]]
		if taken {
			if *c < 31 {
				*c++
			}
		} else if *c > -32 {
			*c--
		}
	}
}

// Snapshot captures the speculative history state. The core takes one
// before each predicted branch so a squash can rewind precisely.
func (p *Predictor) Snapshot() Snapshot { return p.hist().snapshot() }

// Restore rewinds the speculative history to s and then shifts in the now
// known outcome of the mispredicted branch (corrected=true when the squash
// is a branch misprediction repair; for a plain rewind — e.g. a runahead
// exit refetch — pass shiftOutcome=false).
func (p *Predictor) Restore(s Snapshot, shiftOutcome bool, pc uint64, taken bool) {
	p.hist().restore(s)
	if shiftOutcome {
		p.hist().shift(taken, pc, historyLens)
	}
}

// Predictions returns the number of Predict calls, for stats.
func (p *Predictor) Predictions() uint64 { return p.predictions }

func (p *Predictor) hist() *history { return &p.tage.hist }
