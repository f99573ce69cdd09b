package branch

import "rarsim/internal/reuse"

// TAGE proper: a bimodal base predictor plus nTables tagged components
// indexed by hashes of geometrically increasing history lengths. Prediction
// comes from the hitting component with the longest history; allocation on
// mispredictions steals weakly-useful entries in longer components.

const (
	nTables     = 6
	logBimodal  = 13 // 8K-entry bimodal
	logTagged   = 10 // 1K entries per tagged table
	tagBits     = 10
	ctrMax      = 3 // 3-bit signed counter range [-4,3]
	ctrMin      = -4
	uMax        = 3
	resetPeriod = 1 << 18 // usefulness aging period, in updates
)

// historyLens are the geometric history lengths of the tagged tables.
var historyLens = []int{4, 9, 18, 36, 72, 144}

type taggedEntry struct {
	ctr int8 // signed direction counter
	tag uint16
	u   uint8 // usefulness
}

// Info carries the per-prediction provider state from Predict to Update.
// The core stores it alongside the in-flight branch (in the ROB entry) and
// hands it back at commit.
type Info struct {
	PredTaken bool // the final prediction returned to the core

	provider int  // hitting table (0..nTables-1), -1 = bimodal
	altPred  bool // prediction of the alternate component
	tagePred bool // prediction of the provider component
	bimIdx   uint32
	idx      [nTables]uint32
	tag      [nTables]uint16
	loopHit  bool
	loopPred bool
	loopIdx  int
	scUsed   bool
	scSum    int32
	scIdx    [scTables]uint32
}

type tage struct {
	bimodal []int8 // 2-bit counters, range [-2,1]
	tables  [nTables][]taggedEntry
	hist    history

	useAltOnNA int8 // prefer altpred when provider entry is "newly allocated"
	tick       int
	rnd        uint64 // private xorshift for allocation randomisation
}

// reuseTAGE builds a freshly initialised TAGE, into old's arrays when old
// is non-nil.
func reuseTAGE(old *tage) *tage {
	t := old
	if t == nil {
		t = new(tage)
	}
	tables := t.tables
	*t = tage{bimodal: reuse.Zeroed(t.bimodal, 1<<logBimodal)}
	for i := range t.tables {
		t.tables[i] = reuse.Zeroed(tables[i], 1<<logTagged)
	}
	for i := 0; i < nTables; i++ {
		t.hist.idxFold[i] = newFolded(historyLens[i], logTagged)
		t.hist.tagFold1[i] = newFolded(historyLens[i], tagBits)
		t.hist.tagFold2[i] = newFolded(historyLens[i], tagBits-1)
	}
	t.rnd = 0x853c49e6748fea9b
	return t
}

func (t *tage) nextRand() uint64 {
	t.rnd ^= t.rnd << 13
	t.rnd ^= t.rnd >> 7
	t.rnd ^= t.rnd << 17
	return t.rnd
}

func (t *tage) index(pc uint64, table int) uint32 {
	h := uint32(pc>>2) ^ uint32(pc>>(2+logTagged)) ^
		t.hist.idxFold[table].comp ^ uint32(t.hist.phist&((1<<min(historyLens[table], 16))-1))
	return h & ((1 << logTagged) - 1)
}

func (t *tage) tagHash(pc uint64, table int) uint16 {
	h := uint32(pc>>2) ^ t.hist.tagFold1[table].comp ^ (t.hist.tagFold2[table].comp << 1)
	return uint16(h & ((1 << tagBits) - 1))
}

// predict computes the TAGE prediction for pc and records provider state
// into info.
func (t *tage) predict(pc uint64, info *Info) bool {
	info.bimIdx = uint32(pc>>2) & ((1 << logBimodal) - 1)
	bimPred := t.bimodal[info.bimIdx] >= 0

	info.provider = -1
	altProvider := -1
	for i := 0; i < nTables; i++ {
		info.idx[i] = t.index(pc, i)
		info.tag[i] = t.tagHash(pc, i)
	}
	for i := nTables - 1; i >= 0; i-- {
		if t.tables[i][info.idx[i]].tag == info.tag[i] {
			if info.provider < 0 {
				info.provider = i
			} else if altProvider < 0 {
				altProvider = i
				break
			}
		}
	}

	info.altPred = bimPred
	if altProvider >= 0 {
		info.altPred = t.tables[altProvider][info.idx[altProvider]].ctr >= 0
	}
	if info.provider < 0 {
		info.tagePred = bimPred
		return bimPred
	}
	e := &t.tables[info.provider][info.idx[info.provider]]
	info.tagePred = e.ctr >= 0
	// Newly allocated entries (weak counter, zero usefulness) are
	// unreliable; optionally trust the alternate prediction instead.
	weak := (e.ctr == 0 || e.ctr == -1) && e.u == 0
	if weak && t.useAltOnNA >= 0 {
		return info.altPred
	}
	return info.tagePred
}

// update trains TAGE with the committed outcome. info must be the Info
// produced by predict for this branch instance.
func (t *tage) update(pc uint64, taken bool, info *Info) {
	// Allocation: on a misprediction by the provider chain, try to
	// allocate an entry in a table with a longer history.
	if info.tagePred != taken && info.provider < nTables-1 {
		start := info.provider + 1
		allocated := false
		// Randomise the starting candidate slightly to avoid ping-pong.
		if start < nTables-1 && t.nextRand()&1 == 0 {
			start++
		}
		for i := start; i < nTables; i++ {
			e := &t.tables[i][info.idx[i]]
			if e.u == 0 {
				e.tag = info.tag[i]
				e.u = 0
				if taken {
					e.ctr = 0
				} else {
					e.ctr = -1
				}
				allocated = true
				break
			}
		}
		if !allocated {
			// Nothing stealable: age the candidates so a future
			// allocation succeeds.
			for i := info.provider + 1; i < nTables; i++ {
				e := &t.tables[i][info.idx[i]]
				if e.u > 0 {
					e.u--
				}
			}
		}
	}

	// Train the provider (or the bimodal table on a total miss).
	if info.provider >= 0 {
		e := &t.tables[info.provider][info.idx[info.provider]]
		bumpCtr(&e.ctr, taken)
		// Track whether "use alt on newly allocated" helps.
		weak := e.u == 0
		if weak && info.tagePred != info.altPred {
			if info.tagePred == taken && t.useAltOnNA > -64 {
				t.useAltOnNA--
			} else if info.altPred == taken && t.useAltOnNA < 63 {
				t.useAltOnNA++
			}
		}
		// Usefulness: provider was right where the alternate was wrong.
		if info.tagePred == taken && info.altPred != taken && e.u < uMax {
			e.u++
		}
		if info.tagePred != taken && info.altPred == taken && e.u > 0 {
			e.u--
		}
		// Keep the bimodal table warm as the fallback.
		if info.provider == 0 || info.altPred != taken {
			bumpBimodal(&t.bimodal[info.bimIdx], taken)
		}
	} else {
		bumpBimodal(&t.bimodal[info.bimIdx], taken)
	}

	// Periodic usefulness aging.
	t.tick++
	if t.tick >= resetPeriod {
		t.tick = 0
		for i := range t.tables {
			for j := range t.tables[i] {
				t.tables[i][j].u >>= 1
			}
		}
	}
}

func bumpCtr(c *int8, taken bool) {
	if taken {
		if *c < ctrMax {
			*c++
		}
	} else if *c > ctrMin {
		*c--
	}
}

func bumpBimodal(c *int8, taken bool) {
	if taken {
		if *c < 1 {
			*c++
		}
	} else if *c > -2 {
		*c--
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
