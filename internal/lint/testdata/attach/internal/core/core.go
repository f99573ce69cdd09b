// Package core pins how rarlint attaches positional directives to the
// declarations they annotate. A field directive trails its field or
// sits on the line above it (survives may sit two lines above, stacked
// under another directive); directives are claimed in line order, so a
// directive trailing one field is never taken by the next. A function
// directive sits on the func line or in its doc comment. A directive
// attached to nothing, or malformed, is reported.
package core

import "sync"

// machine is runahead state: flushreset audits every field.
type machine struct {
	// spec is waived on its own line; depth, on the next line, must not
	// claim that waiver from above.
	spec uint64 //rarlint:survives runahead residue waived on its own line
	//lintwant flushreset
	depth uint64
	//rarlint:survives waiver on the line above its field
	above uint64
	//rarlint:survives waiver two lines above, stacked over the unit
	//rarlint:unit cycles
	stalls uint64
	// bad's unit is malformed: consumed by bad (so not unattached),
	// yet yielding no dimension, so bad+stalls is not a clash.
	//lintwant lint
	bad   uint64 //rarlint:unit furlongs
	insts uint64 //rarlint:unit insts
}

// counter stacks guardedby with unit in both orders.
type counter struct {
	mu sync.Mutex
	//rarlint:guardedby mu
	hits uint64 //rarlint:unit insts
	//rarlint:unit cycles
	busy uint64 //rarlint:guardedby mu
	//lintwant lockcheck
	idle uint64
}

func (m *machine) enterRunahead() {
	//lintwant purity
	//rarlint:pure floating inside a body, annotating nothing
	m.spec = 1
	m.depth++
	m.above = 2
	m.stalls++
}

func (m *machine) exitRunahead() {}

// mixes exercises the attached units.
func (m *machine) mixes() (uint64, uint64) {
	return m.bad + m.stalls, m.stalls + m.insts //lintwant units
}

// ratio carries two directives in one doc comment.
//
//rarlint:pure
//rarlint:unit insts/cycles
func ratio(insts, cycles uint64) uint64 {
	return insts / cycles
}

//rarlint:locked mu
func (c *counter) bumpLocked() { c.hits++ }

func (c *counter) tick() bool {
	c.mu.Lock()
	c.bumpLocked()
	c.busy++
	clash := c.hits > c.busy //lintwant units
	c.mu.Unlock()
	return clash
}

func (c *counter) peek() uint64 { return c.hits } //lintwant lockcheck

func use(m *machine, c *counter) {
	m.enterRunahead()
	m.exitRunahead()
	m.mixes()
	c.tick()
	c.peek()
	_ = ratio(m.insts, m.stalls)
	_ = c.idle
}
