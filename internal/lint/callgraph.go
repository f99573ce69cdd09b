package lint

// The module's function index and its one reachability walk over the
// static call graph, shared by purity, hotalloc and flushreset. All
// three reason transitively: purity must catch a mutation added three
// calls below a //rarlint:pure root, hotalloc an allocation below a
// //rarlint:hot one, and flushreset must credit a restore performed by
// a helper of exitRunahead. The index maps every function and method
// declared with a body in a non-test file to its declaration, so a
// resolved static callee can be followed into its body; calls that
// cannot be resolved statically (function values, interface methods)
// resolve to nil and each analyzer decides how conservative to be
// about them.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// funcInfo is one module-declared function or method.
type funcInfo struct {
	fn   *types.Func
	pkg  *Package
	decl *ast.FuncDecl
}

// indexFuncs builds the module's function index, once per load.
func (m *Module) indexFuncs() {
	m.funcs = map[*types.Func]*funcInfo{}
	for _, p := range m.Pkgs {
		for _, f := range p.Files {
			if m.isTestFile(f) {
				continue
			}
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if fn, ok := p.Info.Defs[fd.Name].(*types.Func); ok {
					info := &funcInfo{fn: fn, pkg: p, decl: fd}
					m.funcs[fn] = info
					m.funcList = append(m.funcList, info)
				}
			}
		}
	}
}

// funcsWhere returns, in source order, the indexed functions keep
// selects: the roots of a walk.
func (m *Module) funcsWhere(keep func(*funcInfo) bool) []*funcInfo {
	var out []*funcInfo
	for _, info := range m.funcList {
		if keep(info) {
			out = append(out, info)
		}
	}
	return out
}

// referencedFuncs returns, in source order, every module function the body
// of info's function can transfer control to: direct static callees plus
// functions and methods referenced as *values* — a method value stored in
// a variable or passed as an argument escapes the static call graph, so a
// conservative closure must assume it runs. The two sets overlap on plain
// calls; the walk skips repeats.
func (m *Module) referencedFuncs(info *funcInfo) []*funcInfo {
	var out []*funcInfo
	add := func(fn *types.Func) {
		if callee := m.funcs[fn]; callee != nil {
			out = append(out, callee)
		}
	}
	ast.Inspect(info.decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			add(calleeFunc(info.pkg, n))
		case *ast.SelectorExpr:
			// Method values: x.M used as a value (the call case above
			// resolves x.M() too).
			if s := info.pkg.Info.Selections[n]; s != nil && s.Kind() == types.MethodVal {
				if fn, ok := s.Obj().(*types.Func); ok {
					add(fn)
				}
			} else if fn, ok := info.pkg.Info.Uses[n.Sel].(*types.Func); ok {
				add(fn)
			}
		case *ast.Ident:
			if fn, ok := info.pkg.Info.Uses[n].(*types.Func); ok {
				add(fn)
			}
		}
		return true
	})
	return out
}

// callWalk is the breadth-first reachability walk over the static call
// graph. step computes one function's facts and the module functions
// to follow from it; it runs once per function, however many walks
// reach that function.
type callWalk[F any] struct {
	step func(*funcInfo) (F, []*funcInfo)
	done map[*funcInfo]walkStep[F]
}

type walkStep[F any] struct {
	facts   F
	callees []*funcInfo
}

func newCallWalk[F any](step func(*funcInfo) (F, []*funcInfo)) *callWalk[F] {
	return &callWalk[F]{step: step, done: map[*funcInfo]walkStep[F]{}}
}

// from visits every function reachable from roots once, roots first and
// then in BFS discovery order, handing visit the function's facts.
func (w *callWalk[F]) from(roots []*funcInfo, visit func(*funcInfo, F)) {
	seen := map[*funcInfo]bool{}
	var queue []*funcInfo
	push := func(infos []*funcInfo) {
		for _, info := range infos {
			if !seen[info] {
				seen[info] = true
				queue = append(queue, info)
			}
		}
	}
	push(roots)
	for i := 0; i < len(queue); i++ {
		info := queue[i]
		s, ok := w.done[info]
		if !ok {
			s.facts, s.callees = w.step(info)
			w.done[info] = s
		}
		visit(info, s.facts)
		push(s.callees)
	}
}

// impureOp is one rejected operation inside a pure or hot closure.
type impureOp struct {
	pos  token.Pos
	what string
}

// closureCheck runs a walk from every function carrying a verb
// directive and reports each rejected op once, attributed to the first
// root (in source order) whose closure reaches it — the engine of purity
// and hotalloc — plus the verb's unattached directives.
func closureCheck(m *Module, verb, check string, step func(*funcInfo) ([]impureOp, []*funcInfo)) []Diagnostic {
	w := newCallWalk(step)
	reported := map[impureOp]bool{}
	var diags []Diagnostic
	roots := m.funcsWhere(func(info *funcInfo) bool { return m.annotation(info.fn, verb) != nil })
	for _, root := range roots {
		rootName := funcName(root.pkg, root.fn)
		w.from([]*funcInfo{root}, func(info *funcInfo, ops []impureOp) {
			for _, op := range ops {
				if reported[op] {
					continue
				}
				reported[op] = true
				msg := fmt.Sprintf("//rarlint:%s function %s %s", verb, rootName, op.what)
				if info != root {
					msg = fmt.Sprintf("function %s %s, reachable from //rarlint:%s %s",
						funcName(info.pkg, info.fn), op.what, verb, rootName)
				}
				diags = append(diags, Diagnostic{Pos: m.Fset.Position(op.pos), Check: check, Message: msg})
			}
		})
	}
	return append(diags, m.unattached(verb, check, attached)...)
}

// funcName renders a function's name for diagnostics: "Type.Method" for
// methods, plain name otherwise, qualified with the package name when it
// is not the one the diagnostic is reported from.
func funcName(from *Package, fn *types.Func) string {
	name := fn.Name()
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			name = named.Obj().Name() + "." + name
		}
	}
	if fn.Pkg() != nil && (from == nil || fn.Pkg() != from.Types) {
		name = fn.Pkg().Name() + "." + name
	}
	return name
}
