package lint

// Field-access classification shared by statshygiene and configcoverage.
// Both analyzers reason about how struct fields flow through the module:
// which fields are genuinely written (produced), genuinely read
// (consumed), and which accesses are mere plumbing — counter-wise
// copies/subtractions like `out.Cycles -= w.Cycles` that move a field
// between snapshots of the same shape without ever consuming it. Without
// the plumbing rule, a warmup-subtraction helper that touches every field
// would mark the whole struct "read" and the analysis would be blind.

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// access kinds.
const (
	accRead = iota
	accWrite
)

// fieldUse records one classified access to an audited field.
type fieldUse struct {
	field *types.Var
	kind  int
	pos   token.Pos
}

// fieldFlow walks every file of every module package and classifies
// accesses to the audited fields. countInner controls whether interior
// components of a selector chain count as reads: statshygiene turns it
// off (in `st.Mem.DemandLoads` only DemandLoads is consumed),
// configcoverage turns it on (any appearance of a knob on a read path
// means the knob reaches the model).
type fieldFlow struct {
	mod        *Module
	audited    map[*types.Var]bool
	countInner bool
	uses       []fieldUse

	// handled marks selector/ident nodes consumed by write or plumbing
	// classification so the generic read pass skips them.
	handled map[ast.Node]bool
}

// run classifies every access in the module. Test files (present only
// in -tests mode) are out of scope: a test reading a counter does not
// make the counter a reported metric, and a test writing a knob does
// not make the knob covered.
func (ff *fieldFlow) run() {
	ff.handled = map[ast.Node]bool{}
	for _, p := range ff.mod.Pkgs {
		for _, f := range p.Files {
			if ff.mod.isTestFile(f) {
				continue
			}
			ff.file(p, f)
		}
	}
}

func (ff *fieldFlow) file(p *Package, f *ast.File) {
	// First pass: classify write contexts and mark their nodes.
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			ff.assign(p, n)
		case *ast.IncDecStmt:
			if fv, sel := ff.outermostField(p, n.X); fv != nil {
				ff.record(fv, accWrite, n.X.Pos())
				ff.markChain(sel)
			}
		case *ast.CompositeLit:
			ff.composite(p, n)
		}
		return true
	})
	// Second pass: everything left is a read.
	ast.Inspect(f, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok || ff.handled[sel] {
			return true
		}
		fv := ff.fieldOf(p, sel)
		if fv == nil {
			return true
		}
		ff.record(fv, accRead, sel.Pos())
		if !ff.countInner {
			// The interior of the chain is an access path, not a
			// consumption of the interior fields.
			markInner(sel, ff.handled)
		}
		return true
	})
}

// assign classifies one assignment statement, applying the plumbing rule
// when LHS and RHS move the same audited field.
func (ff *fieldFlow) assign(p *Package, n *ast.AssignStmt) {
	pairwise := len(n.Lhs) == len(n.Rhs)
	for i, lhs := range n.Lhs {
		fv, sel := ff.outermostField(p, lhs)
		if fv == nil {
			continue
		}
		ff.markChain(sel)
		var rhs ast.Expr
		if pairwise {
			rhs = n.Rhs[i]
		}
		if rhs != nil {
			rhsFields, rhsSels := ff.auditedReads(p, rhs)
			if len(rhsFields) > 0 && allSame(rhsFields, fv) {
				// Pure plumbing: the field is moved, neither produced
				// nor consumed. Mark the RHS chains so the read pass
				// skips them.
				for _, s := range rhsSels {
					ff.markChain(s)
				}
				continue
			}
		}
		ff.record(fv, accWrite, lhs.Pos())
	}
}

// composite records writes for keyed fields of audited struct literals.
func (ff *fieldFlow) composite(p *Package, cl *ast.CompositeLit) {
	for _, elt := range cl.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		key, ok := kv.Key.(*ast.Ident)
		if !ok {
			continue
		}
		obj, ok := p.Info.Uses[key].(*types.Var)
		if !ok || !obj.IsField() || !ff.audited[obj] {
			continue
		}
		ff.record(obj, accWrite, key.Pos())
		ff.handled[key] = true
	}
}

// auditedReads collects the outermost audited fields read anywhere in
// expr, together with their selector nodes.
func (ff *fieldFlow) auditedReads(p *Package, expr ast.Expr) ([]*types.Var, []*ast.SelectorExpr) {
	var fields []*types.Var
	var sels []*ast.SelectorExpr
	ast.Inspect(expr, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if fv := ff.fieldOf(p, sel); fv != nil {
			fields = append(fields, fv)
			sels = append(sels, sel)
			return false // the chain's interior is an access path
		}
		return true
	})
	return fields, sels
}

// outermostField resolves expr to the outermost audited field it writes
// through: for `s.Mem.PrefetchIssued` that is PrefetchIssued, with the
// interior Mem treated as the access path. Index and star expressions
// are unwrapped (`st.ABC[i]` writes through field ABC).
func (ff *fieldFlow) outermostField(p *Package, expr ast.Expr) (*types.Var, *ast.SelectorExpr) {
	for {
		switch e := expr.(type) {
		case *ast.ParenExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		case *ast.SelectorExpr:
			if fv := ff.fieldOf(p, e); fv != nil {
				return fv, e
			}
			return nil, nil
		default:
			return nil, nil
		}
	}
}

// fieldOf resolves a selector to an audited field, or nil.
func (ff *fieldFlow) fieldOf(p *Package, sel *ast.SelectorExpr) *types.Var {
	s := p.Info.Selections[sel]
	if s == nil || s.Kind() != types.FieldVal {
		return nil
	}
	fv, ok := s.Obj().(*types.Var)
	if !ok || !ff.audited[fv] {
		return nil
	}
	return fv
}

// markChain marks every selector in the chain rooted at sel as handled.
func (ff *fieldFlow) markChain(sel *ast.SelectorExpr) {
	if sel == nil {
		return
	}
	ff.handled[sel] = true
	markInner(sel, ff.handled)
}

// markInner marks the interior selectors of a chain.
func markInner(sel *ast.SelectorExpr, handled map[ast.Node]bool) {
	for {
		inner, ok := sel.X.(*ast.SelectorExpr)
		if !ok {
			return
		}
		handled[inner] = true
		sel = inner
	}
}

// record appends one classified use.
func (ff *fieldFlow) record(fv *types.Var, kind int, pos token.Pos) {
	ff.uses = append(ff.uses, fieldUse{field: fv, kind: kind, pos: pos})
}

// allSame reports whether every field in fields is fv.
func allSame(fields []*types.Var, fv *types.Var) bool {
	for _, f := range fields {
		if f != fv {
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------------
// Generalized interprocedural field-flow engine.
//
// Where fieldFlow above classifies accesses file by file for the
// struct-hygiene checks, the flowEngine computes *transitive closures*:
// starting from a set of seed functions it walks the static call graph
// (plain calls plus functions and methods referenced as values) and
// accumulates, with leaf-field attribution, every struct field the
// closure can write and every struct field whose value it can read.
// Whole-struct writes (`*u = uop{}`, `c.chk = checkpoint{...}`) expand
// to every field of the struct, recursively through nested structs and
// pointers; reads through embedded promotions credit each field along
// the selection path. flushreset builds on it, diffing two write
// closures.

// flowSite records where a closure first observed an access to a field.
type flowSite struct {
	// fn is the rendered name of the function the access occurred in.
	fn string
	// pos is the position of the access.
	pos token.Pos
}

// flowSet is a transitive field-access closure: each accessed field
// mapped to the first site the closure walk observed.
type flowSet map[*types.Var]flowSite

// flowFacts caches one function's local field-flow: leaf-attributed
// writes, reads, and the module functions its body can transfer control
// to (including method values — see funcIndex.referencedFuncs).
type flowFacts struct {
	writes  []fieldUse
	reads   []fieldUse
	callees []*funcInfo
}

// flowEngine computes transitive per-function field write and read sets
// over a module's static call graph.
type flowEngine struct {
	fi    *funcIndex
	facts map[*funcInfo]*flowFacts
}

func newFlowEngine(fi *funcIndex) *flowEngine {
	return &flowEngine{fi: fi, facts: map[*funcInfo]*flowFacts{}}
}

// closure walks the call graph from seeds in BFS order and returns the
// union of every reachable function's write and read sets, each field
// attributed to the first function observed accessing it, plus the
// visited functions themselves (seeds first, then discovery order).
func (fe *flowEngine) closure(seeds []*funcInfo) (writes, reads flowSet, funcs []*funcInfo) {
	writes, reads = flowSet{}, flowSet{}
	visited := map[*funcInfo]bool{}
	queue := append([]*funcInfo(nil), seeds...)
	for _, s := range seeds {
		visited[s] = true
	}
	for len(queue) > 0 {
		info := queue[0]
		queue = queue[1:]
		funcs = append(funcs, info)
		ft := fe.facts[info]
		if ft == nil {
			ft = computeFlowFacts(fe.fi, info)
			fe.facts[info] = ft
		}
		name := funcName(nil, info.fn)
		for _, u := range ft.writes {
			if _, ok := writes[u.field]; !ok {
				writes[u.field] = flowSite{fn: name, pos: u.pos}
			}
		}
		for _, u := range ft.reads {
			if _, ok := reads[u.field]; !ok {
				reads[u.field] = flowSite{fn: name, pos: u.pos}
			}
		}
		for _, callee := range ft.callees {
			if !visited[callee] {
				visited[callee] = true
				queue = append(queue, callee)
			}
		}
	}
	return writes, reads, funcs
}

// writeClosure is closure returning only the write set.
func (fe *flowEngine) writeClosure(seeds []*funcInfo) flowSet {
	w, _, _ := fe.closure(seeds)
	return w
}

// computeFlowFacts scans one function body and classifies every struct
// field access: assignment and inc/dec targets resolve to their leaf
// field (with whole-struct expansion), everything else that selects a
// field is a read, crediting each field along the selection path so
// embedded promotions count their intermediates.
func computeFlowFacts(fi *funcIndex, info *funcInfo) *flowFacts {
	p, fd := info.pkg, info.decl
	ft := &flowFacts{}
	// writeLeaves marks the selector node carrying a write target's leaf
	// field, so the read pass does not also classify it as a read.
	writeLeaves := map[ast.Node]bool{}

	recordWrite := func(lhs ast.Expr) {
		fields, leaf := flowWriteTarget(p, lhs)
		for _, fv := range fields {
			ft.writes = append(ft.writes, fieldUse{field: fv, kind: accWrite, pos: lhs.Pos()})
		}
		if leaf != nil {
			writeLeaves[leaf] = true
		}
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE {
				return true // new locals; selector targets cannot appear
			}
			for _, lhs := range n.Lhs {
				recordWrite(lhs)
				if n.Tok != token.ASSIGN {
					// Op-assigns (+=, -=, ...) read the old value too.
					if fv, _ := flowLeafField(p, lhs); fv != nil {
						ft.reads = append(ft.reads, fieldUse{field: fv, kind: accRead, pos: lhs.Pos()})
					}
				}
			}
		case *ast.IncDecStmt:
			recordWrite(n.X)
			if fv, _ := flowLeafField(p, n.X); fv != nil {
				ft.reads = append(ft.reads, fieldUse{field: fv, kind: accRead, pos: n.X.Pos()})
			}
		}
		return true
	})

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok || writeLeaves[sel] {
			return true
		}
		s := p.Info.Selections[sel]
		if s == nil || s.Kind() != types.FieldVal {
			return true
		}
		for _, fv := range selectionFields(s) {
			ft.reads = append(ft.reads, fieldUse{field: fv, kind: accRead, pos: sel.Pos()})
		}
		return true
	})

	ft.callees = fi.referencedFuncs(info)
	return ft
}

// flowWriteTarget resolves one assignment target to the struct fields it
// writes — the leaf field of the selector chain, expanded to every field
// of the struct when the write replaces a whole struct value — plus the
// selector node carrying the leaf (nil when the target is no field at
// all: a plain local or global variable).
func flowWriteTarget(p *Package, lhs ast.Expr) ([]*types.Var, *ast.SelectorExpr) {
	for {
		switch e := ast.Unparen(lhs).(type) {
		case *ast.IndexExpr:
			lhs = e.X // element write reaches the container field
		case *ast.StarExpr:
			// *ptr = v replaces the whole pointee.
			if tv, ok := p.Info.Types[e.X]; ok {
				if ptr, ok := tv.Type.Underlying().(*types.Pointer); ok {
					return structFields(ptr.Elem(), nil, nil), nil
				}
			}
			return nil, nil
		case *ast.SelectorExpr:
			s := p.Info.Selections[e]
			if s == nil || s.Kind() != types.FieldVal {
				return nil, nil
			}
			fv, ok := s.Obj().(*types.Var)
			if !ok {
				return nil, nil
			}
			return structFields(fv.Type(), nil, []*types.Var{fv}), e
		default:
			return nil, nil
		}
	}
}

// flowLeafField resolves lhs to the leaf field it accesses, without
// whole-struct expansion, or nil.
func flowLeafField(p *Package, lhs ast.Expr) (*types.Var, *ast.SelectorExpr) {
	for {
		switch e := ast.Unparen(lhs).(type) {
		case *ast.IndexExpr:
			lhs = e.X
		case *ast.StarExpr:
			lhs = e.X
		case *ast.SelectorExpr:
			s := p.Info.Selections[e]
			if s == nil || s.Kind() != types.FieldVal {
				return nil, nil
			}
			if fv, ok := s.Obj().(*types.Var); ok {
				return fv, e
			}
			return nil, nil
		default:
			return nil, nil
		}
	}
}

// seedFuncs collects, in deterministic source order, every module
// function whose name is in names, along with the set of packages the
// seeds were found in. Names absent from the module are simply not
// seeds.
func seedFuncs(m *Module, fi *funcIndex, names map[string]bool) ([]*funcInfo, map[*Package]bool) {
	var seeds []*funcInfo
	pkgs := map[*Package]bool{}
	for _, p := range m.Pkgs {
		for _, f := range p.Files {
			if m.isTestFile(f) {
				continue
			}
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil || !names[fd.Name.Name] {
					continue
				}
				fn, _ := p.Info.Defs[fd.Name].(*types.Func)
				if info := fi.lookup(fn); info != nil {
					seeds = append(seeds, info)
					pkgs[p] = true
				}
			}
		}
	}
	return seeds, pkgs
}

// auditedFields returns every field of every named struct declared in
// one of the given packages, sorted by file and offset (so a directive
// trailing one field is claimed by it before the next field looks
// upward), plus each field's "pkg.Type" owner for diagnostics.
func auditedFields(m *Module, pkgs map[*Package]bool) ([]*types.Var, map[*types.Var]string) {
	owner := map[*types.Var]string{}
	var fields []*types.Var
	for _, p := range m.Pkgs {
		if !pkgs[p] {
			continue
		}
		scope := p.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || m.isTestPos(tn.Pos()) {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				fv := st.Field(i)
				fields = append(fields, fv)
				owner[fv] = p.Types.Name() + "." + name
			}
		}
	}
	sort.Slice(fields, func(i, j int) bool {
		pi, pj := m.Fset.Position(fields[i].Pos()), m.Fset.Position(fields[j].Pos())
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		return pi.Offset < pj.Offset
	})
	return fields, owner
}

// selectionFields returns every struct field along a field selection's
// path, outermost first: for `x.F` promoted through embedded E it yields
// [E, F], so reads through embeddings credit their intermediates.
func selectionFields(s *types.Selection) []*types.Var {
	t := s.Recv()
	var out []*types.Var
	for _, idx := range s.Index() {
		if ptr, ok := t.Underlying().(*types.Pointer); ok {
			t = ptr.Elem()
		}
		st, ok := t.Underlying().(*types.Struct)
		if !ok || idx >= st.NumFields() {
			break
		}
		fv := st.Field(idx)
		out = append(out, fv)
		t = fv.Type()
	}
	return out
}
