package lint

// The flushreset analyzer statically encodes the flush-at-exit un-ACE
// argument: RAR can mark runahead work reliability-free only because
// exitRunahead/doFlush squash every piece of microarchitectural state a
// runahead interval accumulated. The analyzer computes, over the static
// call graph,
//
//	W = fields written by the runahead-mode writer functions' closures,
//	R = fields written by the reset/flush functions' closures,
//
// and reports every field in W \ R at its declaration: state mutated
// during runahead that no exit path restores is exactly the residue the
// contract forbids. A field that legitimately outlives runahead exit
// (a statistics counter, a consumed-once checkpoint, a poison bit that
// the next allocation clears) carries //rarlint:survives <reason> on its
// declaration — and the analyzer keeps those honest too: a survives
// annotation on a field that is in fact restored (or never
// runahead-written) is itself a finding, so waivers cannot rot.
//
// Writer and reset functions are matched by name in any module package;
// writes are attributed to the leaf field of the assignment chain
// (`c.chk.rat = x` writes checkpoint.rat, not Core.chk), and assigning a
// whole struct value (`*u = uop{}`, `c.chk = checkpoint{...}`) counts as
// writing every audited field of that struct.

import "fmt"

// resetFuncNames are the reset-shaped functions whose closures define
// the restored set R. Names absent from a module are simply not seeds.
var resetFuncNames = map[string]bool{
	"exitRunahead":    true,
	"doFlush":         true,
	"discardRunahead": true,
	"abortRunahead":   true,
	"squashYounger":   true,
	"clearWrongPath":  true,
	"Reset":           true,
}

// runaheadWriterNames are the functions that only execute on
// runahead-mode paths; their closures define the written set W.
var runaheadWriterNames = map[string]bool{
	"enterRunahead":         true,
	"dispatchRunahead":      true,
	"dropRunahead":          true,
	"drainPRDQ":             true,
	"redirectRunahead":      true,
	"squashRunaheadYounger": true,
}

func flushReset(m *Module) []Diagnostic {
	writers := m.funcsWhere(func(info *funcInfo) bool { return runaheadWriterNames[info.fn.Name()] })
	resets := m.funcsWhere(func(info *funcInfo) bool { return resetFuncNames[info.fn.Name()] })
	if len(writers) == 0 || len(resets) == 0 {
		return nil // not a runahead module: nothing to diff
	}

	// Audited fields: every field of every named struct declared in a
	// package holding a seed function.
	seedPkgs := map[*Package]bool{}
	for _, info := range append(writers, resets...) {
		seedPkgs[info.pkg] = true
	}
	fields, owner := auditedFields(m, func(p *Package, _ string) bool { return seedPkgs[p] })

	w := newCallWalk(m.flowWrites)
	written := writeClosure(w, writers)
	restored := writeClosure(w, resets)

	var diags []Diagnostic
	claimed := map[*directive]bool{}
	for _, fv := range fields {
		pos := m.Fset.Position(fv.Pos())
		sv := m.annotation(fv, verbSurvives)
		claimed[sv] = true
		waived := sv != nil && sv.bad == "" // a malformed waiver waives nothing
		writer, leaks := written[fv]
		if _, ok := restored[fv]; ok {
			leaks = false
		}
		switch {
		case leaks && !waived:
			diags = append(diags, Diagnostic{Pos: pos, Check: "flushreset",
				Message: fmt.Sprintf("field %s.%s is written on runahead paths (by %s) but not restored by any exit/flush function: runahead residue would survive exit — restore it or annotate //rarlint:survives <reason>",
					owner[fv], fv.Name(), writer)})
		case !leaks && waived:
			diags = append(diags, Diagnostic{Pos: pos, Check: "flushreset",
				Message: fmt.Sprintf("stale rarlint:survives on %s.%s: the field is restored at runahead exit (or never written on runahead paths); remove the annotation",
					owner[fv], fv.Name())})
		}
	}

	// survives directives attached to nothing audited govern nothing;
	// malformed ones are already lint findings.
	return append(diags, m.unattached(verbSurvives, "flushreset", func(d *directive) bool {
		return claimed[d] || d.bad != ""
	})...)
}
