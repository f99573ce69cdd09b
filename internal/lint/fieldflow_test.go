package lint

import (
	"path/filepath"
	"testing"
)

// TestFieldFlowEngine asserts the generalized interprocedural engine
// directly against the testdata/fieldflow corpus, so a regression in
// whole-struct expansion, embedded-promotion reads, or method-value
// following localizes to the engine rather than to an analyzer.
func TestFieldFlowEngine(t *testing.T) {
	dir, err := filepath.Abs(filepath.Join("testdata", "fieldflow"))
	if err != nil {
		t.Fatal(err)
	}
	m, err := LoadModule(dir)
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	fi := buildFuncIndex(m)
	find := func(name string) *funcInfo {
		for _, info := range fi.decls {
			if info.fn.Name() == name {
				return info
			}
		}
		t.Fatalf("corpus function %s not found", name)
		return nil
	}
	names := func(s flowSet) map[string]bool {
		out := map[string]bool{}
		for fv := range s {
			out[fv.Name()] = true
		}
		return out
	}
	fe := newFlowEngine(fi)

	// Whole-struct writes: o.in = inner{} writes in, a and b; the
	// pointer deref write *o.ptr = inner{...} writes the pointee's
	// fields but not the ptr field itself, and nothing writes count.
	w := names(fe.writeClosure([]*funcInfo{find("wholeStruct")}))
	for _, want := range []string{"in", "a", "b"} {
		if !w[want] {
			t.Errorf("wholeStruct write set missing %q (got %v)", want, w)
		}
	}
	for _, reject := range []string{"ptr", "count", "tick"} {
		if w[reject] {
			t.Errorf("wholeStruct write set wrongly contains %q", reject)
		}
	}

	// Embedded promotion: reading o.tick credits the intermediate
	// embedded field (base) and the leaf (tick).
	_, r, _ := fe.closure([]*funcInfo{find("promoted")})
	rn := names(r)
	for _, want := range []string{"base", "tick"} {
		if !rn[want] {
			t.Errorf("promoted read set missing %q (got %v)", want, rn)
		}
	}

	// Method values: methodValue never calls bump directly, but the
	// closure must follow the bound value and see count written.
	w2, _, funcs := fe.closure([]*funcInfo{find("methodValue")})
	if !names(w2)["count"] {
		t.Errorf("methodValue write set missing count: bound method value not followed (got %v)", names(w2))
	}
	sawBump := false
	for _, info := range funcs {
		if info.fn.Name() == "bump" {
			sawBump = true
		}
	}
	if !sawBump {
		t.Errorf("methodValue closure did not visit bump")
	}

	// Function-value references: reader reaches promoted only through a
	// method value; its read closure must still cover the promotion.
	_, r3, _ := fe.closure([]*funcInfo{find("reader")})
	if !names(r3)["tick"] {
		t.Errorf("reader read set missing tick: method value reference not followed (got %v)", names(r3))
	}
}
