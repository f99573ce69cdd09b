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
	mod *Module
	// audited maps each audited field to its "pkg.Type" owner.
	audited    map[*types.Var]string
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
		if !ok || !obj.IsField() || ff.audited[obj] == "" {
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
	if !ok || ff.audited[fv] == "" {
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
// Interprocedural write closures.
//
// Where fieldFlow above classifies accesses file by file for the
// struct-hygiene checks, flushreset needs *transitive* write sets:
// starting from seed functions, the call walk follows the static call
// graph (plain calls plus functions and methods referenced as values)
// and accumulates, with leaf-field attribution, every struct field the
// closure can write. Whole-struct writes (`*u = uop{}`,
// `c.chk = checkpoint{...}`) expand to every field of the struct,
// recursively through nested structs and pointers.

// flowWrites is the write-closure walk step: the fields one function
// body writes and every module function it can transfer control to.
func (m *Module) flowWrites(info *funcInfo) ([]*types.Var, []*funcInfo) {
	var writes []*types.Var
	ast.Inspect(info.decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE {
				return true // new locals; selector targets cannot appear
			}
			for _, lhs := range n.Lhs {
				writes = append(writes, flowWriteTarget(info.pkg, lhs)...)
			}
		case *ast.IncDecStmt:
			writes = append(writes, flowWriteTarget(info.pkg, n.X)...)
		}
		return true
	})
	return writes, m.referencedFuncs(info)
}

// writeClosure maps every field written by a function reachable from
// seeds to the first function the walk saw writing it.
func writeClosure(w *callWalk[[]*types.Var], seeds []*funcInfo) map[*types.Var]string {
	writes := map[*types.Var]string{}
	w.from(seeds, func(info *funcInfo, fields []*types.Var) {
		for _, fv := range fields {
			if _, ok := writes[fv]; !ok {
				writes[fv] = funcName(nil, info.fn)
			}
		}
	})
	return writes
}

// flowWriteTarget resolves one assignment target to the struct fields it
// writes: the leaf field of the selector chain, expanded to every field
// of the struct when the write replaces a whole struct value (none when
// the target is a plain local or global variable).
func flowWriteTarget(p *Package, lhs ast.Expr) []*types.Var {
	for {
		switch e := ast.Unparen(lhs).(type) {
		case *ast.IndexExpr:
			lhs = e.X // element write reaches the container field
		case *ast.StarExpr:
			// *ptr = v replaces the whole pointee.
			if tv, ok := p.Info.Types[e.X]; ok {
				if ptr, ok := tv.Type.Underlying().(*types.Pointer); ok {
					return structFields(ptr.Elem(), nil)
				}
			}
			return nil
		case *ast.SelectorExpr:
			s := p.Info.Selections[e]
			if s == nil || s.Kind() != types.FieldVal {
				return nil
			}
			fv, ok := s.Obj().(*types.Var)
			if !ok {
				return nil
			}
			return structFields(fv.Type(), []*types.Var{fv})
		default:
			return nil
		}
	}
}

// structFields appends every field of t (recursively, through struct
// and pointer-to-struct types) to out.
func structFields(t types.Type, out []*types.Var) []*types.Var {
	seen := map[types.Type]bool{}
	var walk func(t types.Type)
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
			out = append(out, st.Field(i))
			walk(st.Field(i).Type())
		}
	}
	walk(t)
	return out
}

// auditedFields returns every field of every named struct declared in a
// non-test file whose package and type name keep selects, plus each
// field's "pkg.Type" owner for diagnostics.
func auditedFields(m *Module, keep func(p *Package, typeName string) bool) ([]*types.Var, map[*types.Var]string) {
	owner := map[*types.Var]string{}
	var fields []*types.Var
	for _, p := range m.Pkgs {
		scope := p.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || m.isTestPos(tn.Pos()) || !keep(p, name) {
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
	return fields, owner
}
