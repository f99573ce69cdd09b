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

import (
	"fmt"
	"go/types"
	"sort"
)

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
	fi := buildFuncIndex(m)

	// Seeds, in deterministic source order.
	writers, writerPkgs := seedFuncs(m, fi, runaheadWriterNames)
	resets, resetPkgs := seedFuncs(m, fi, resetFuncNames)
	if len(writers) == 0 || len(resets) == 0 {
		return nil // not a runahead module: nothing to diff
	}
	seedPkgs := writerPkgs
	for p := range resetPkgs {
		seedPkgs[p] = true
	}

	// Audited fields: every field of every named struct declared in a
	// package holding a seed function, in file/line order so a directive
	// trailing one field is claimed by it and never mistaken for a
	// standalone directive above the next.
	fields, owner := auditedFields(m, seedPkgs)

	fe := newFlowEngine(fi)
	written := fe.writeClosure(writers)
	restored := fe.writeClosure(resets)

	// A survives directive trails its field or sits up to two lines above
	// it, so it can stack with a unit directive already annotating the
	// same declaration.
	attached := map[*survives]int{}
	claim := func(filename string, fieldLine int) *survives {
		for _, l := range []int{fieldLine, fieldLine - 1, fieldLine - 2} {
			for _, sv := range m.survives[filename][l] {
				if sv.reason == "" {
					continue // malformed, already a lint finding
				}
				if at, ok := attached[sv]; ok && at != fieldLine {
					continue
				}
				attached[sv] = fieldLine
				return sv
			}
		}
		return nil
	}

	var diags []Diagnostic
	for _, fv := range fields {
		pos := m.Fset.Position(fv.Pos())
		sv := claim(pos.Filename, pos.Line)
		site, leaks := written[fv]
		if _, ok := restored[fv]; ok {
			leaks = false
		}
		switch {
		case leaks && sv != nil:
			sv.used = true
		case leaks:
			diags = append(diags, Diagnostic{Pos: pos, Check: "flushreset",
				Message: fmt.Sprintf("field %s.%s is written on runahead paths (by %s) but not restored by any exit/flush function: runahead residue would survive exit — restore it or annotate //rarlint:survives <reason>",
					owner[fv], fv.Name(), site.fn)})
		case sv != nil:
			diags = append(diags, Diagnostic{Pos: pos, Check: "flushreset",
				Message: fmt.Sprintf("stale rarlint:survives on %s.%s: the field is restored at runahead exit (or never written on runahead paths); remove the annotation",
					owner[fv], fv.Name())})
		}
	}

	// survives directives attached to nothing audited govern nothing.
	diags = append(diags, unattachedSurvives(m, attached)...)
	return diags
}

// structFields appends every audited field of t (recursively, through
// struct and pointer-to-struct types) to out. A nil audited map means
// every field is in scope.
func structFields(t types.Type, audited map[*types.Var]bool, out []*types.Var) []*types.Var {
	var walk func(t types.Type)
	seen := map[types.Type]bool{}
	walk = func(t types.Type) {
		if ptr, ok := t.Underlying().(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if seen[t] {
			return
		}
		seen[t] = true
		st, ok := t.Underlying().(*types.Struct)
		if !ok {
			return
		}
		for i := 0; i < st.NumFields(); i++ {
			fv := st.Field(i)
			if audited != nil && !audited[fv] {
				continue
			}
			out = append(out, fv)
			walk(fv.Type())
		}
	}
	walk(t)
	return out
}

// unattachedSurvives reports survives directives that no audited field
// declaration claimed.
func unattachedSurvives(m *Module, attached map[*survives]int) []Diagnostic {
	var diags []Diagnostic
	for filename, byLine := range m.survives {
		var lines []int
		for line := range byLine {
			lines = append(lines, line)
		}
		sort.Ints(lines)
		for _, line := range lines {
			for _, sv := range byLine[line] {
				if _, ok := attached[sv]; ok || sv.reason == "" {
					continue // malformed ones are already lint findings
				}
				diags = append(diags, Diagnostic{Pos: positionAt(filename, line), Check: "flushreset",
					Message: "rarlint:survives is not attached to an audited struct field declaration"})
			}
		}
	}
	return diags
}
