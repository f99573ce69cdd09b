package lint

import (
	"go/types"
	"path/filepath"
	"testing"
)

// TestFieldFlowEngine asserts the write closures directly against the
// testdata/fieldflow corpus, so a regression in whole-struct expansion
// or method-value following localizes to the engine and the call walk
// rather than to flushreset.
func TestFieldFlowEngine(t *testing.T) {
	dir, err := filepath.Abs(filepath.Join("testdata", "fieldflow"))
	if err != nil {
		t.Fatal(err)
	}
	m, err := LoadModule(dir)
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	find := func(name string) *funcInfo {
		for _, info := range m.funcList {
			if info.fn.Name() == name {
				return info
			}
		}
		t.Fatalf("corpus function %s not found", name)
		return nil
	}
	names := func(s map[*types.Var]string) map[string]bool {
		out := map[string]bool{}
		for fv := range s {
			out[fv.Name()] = true
		}
		return out
	}
	w := newCallWalk(m.flowWrites)

	// Whole-struct writes: o.in = inner{} writes in, a and b; the
	// pointer deref write *o.ptr = inner{...} writes the pointee's
	// fields but not the ptr field itself, and nothing writes count.
	ws := names(writeClosure(w, []*funcInfo{find("wholeStruct")}))
	for _, want := range []string{"in", "a", "b"} {
		if !ws[want] {
			t.Errorf("wholeStruct write set missing %q (got %v)", want, ws)
		}
	}
	for _, reject := range []string{"ptr", "count", "tick"} {
		if ws[reject] {
			t.Errorf("wholeStruct write set wrongly contains %q", reject)
		}
	}

	// Method values: methodValue never calls bump directly, but the
	// closure must follow the bound value and see count written.
	mv := []*funcInfo{find("methodValue")}
	if w2 := names(writeClosure(w, mv)); !w2["count"] {
		t.Errorf("methodValue write set missing count: bound method value not followed (got %v)", w2)
	}
	sawBump := false
	w.from(mv, func(info *funcInfo, _ []*types.Var) {
		sawBump = sawBump || info.fn.Name() == "bump"
	})
	if !sawBump {
		t.Errorf("methodValue closure did not visit bump")
	}
}
