package lint

// rarlint directives. Every directive is a comment of the form
// //rarlint:<verb> ... (a // comment runs to the end of its line, so a
// line holds at most one):
//
//	//rarlint:allow <check> <reason>    suppress one audited finding
//	//rarlint:pure                      declare a function side-effect-free
//	//rarlint:survives <reason>         a runahead-written field that
//	                                    legitimately outlives runahead exit
//	//rarlint:unit <unit-expr>          dimension of a field or of a
//	                                    function's result
//	//rarlint:guardedby <mu|atomic|init> a struct field readable only under
//	                                    the named sibling mutex (or via
//	                                    sync/atomic, or set before sharing)
//	//rarlint:locked <mu>               a method whose contract is "called
//	                                    with the receiver's mu held"
//	//rarlint:hot                       an allocation-free hot-loop root
//
// allow governs the line it sits on and the line below. Every other
// verb is positional: one pass at load time attaches it to the
// declaration it annotates, so analyzers only look annotations up. A
// function directive sits on the func line or in the doc comment; a
// field directive trails its field or sits on the line above it
// (survives may sit two lines above, stacked over another directive).
// Declarations claim in line order, each at most one directive per
// verb, so a directive trailing one field is never taken by the next.
//
// A directive must be well-formed — allow names exactly one existing
// check and carries a reason, survives carries a reason, unit's
// expression must parse, guardedby and locked carry a lock argument —
// and must stay *live*: an allow that no longer suppresses anything, a
// positional directive attached to nothing its analyzer audits, and a
// survives that no longer matches a finding are themselves reported,
// so a waiver can never silently rot into a blanket exemption. A
// malformed positional directive is still claimed by its declaration
// but annotates nothing. Malformed and stale directives surface as
// findings of the "lint" pseudo-check, which cannot be suppressed.

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Directive verbs.
const (
	verbAllow     = "allow"
	verbGuardedBy = "guardedby"
	verbHot       = "hot"
	verbLocked    = "locked"
	verbPure      = "pure"
	verbSurvives  = "survives"
	verbUnit      = "unit"
)

// positional lists the verbs the load-time pass attaches: what each
// must annotate (for the unattached finding), whether it sits on
// functions, and how many lines a struct field searches for it, its
// own line first (0: never on fields).
var positional = map[string]struct {
	target     string
	onFuncs    bool
	fieldLines int
}{
	verbPure:      {"a function declaration", true, 0},
	verbHot:       {"a function declaration", true, 0},
	verbLocked:    {"a method declaration", true, 0},
	verbUnit:      {"a struct field or function declaration", true, 2},
	verbGuardedBy: {"a struct field", false, 2},
	verbSurvives:  {"an audited struct field declaration", false, 3},
}

// directive is one parsed //rarlint: comment.
type directive struct {
	verb string
	// args are the whitespace-separated words after the verb.
	args []string
	pos  token.Position
	// bad is the "lint" finding a malformed directive raises ("" when
	// well-formed).
	bad string
	// used: an allow suppressed a finding or cut a hotalloc traversal; a
	// positional directive was attached to a declaration.
	used bool
}

// arg returns the directive's first argument, or "".
func (d *directive) arg() string {
	if len(d.args) == 0 {
		return ""
	}
	return d.args[0]
}

// annotKey names one declaration's directive of one verb.
type annotKey struct {
	obj  types.Object
	verb string
}

const directivePrefix = "//rarlint:"

// parseDirectives records and validates every rarlint directive in f.
// Directives are validated even when -check disables the analyzer they
// serve — a typo must not hide behind a filter.
func (m *Module) parseDirectives(filename string, f *ast.File) {
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			rest, ok := strings.CutPrefix(c.Text, directivePrefix)
			if !ok {
				continue
			}
			verb := rest
			if i := strings.IndexAny(rest, " \t"); i >= 0 {
				verb, rest = rest[:i], rest[i:]
			} else {
				rest = ""
			}
			d := &directive{verb: verb, args: strings.Fields(rest),
				pos: positionAt(filename, m.Fset.Position(c.Pos()).Line)}
			d.bad = d.validate()
			m.directives = append(m.directives, d)
			if m.dirAt[filename] == nil {
				m.dirAt[filename] = map[int]*directive{}
			}
			m.dirAt[filename][d.pos.Line] = d
		}
	}
}

// validate returns the finding for a malformed directive, or "".
func (d *directive) validate() string {
	switch d.verb {
	case verbAllow:
		switch check := d.arg(); {
		case check == "":
			return "malformed rarlint:allow: missing check name"
		case !knownCheck(check):
			return "malformed rarlint:allow: unknown check " + check
		case len(d.args) < 2:
			return "rarlint:allow " + check + " needs a reason"
		}
	case verbSurvives:
		if len(d.args) == 0 {
			return "rarlint:survives needs a reason"
		}
	case verbUnit:
		if _, err := parseUnit(d.arg()); err != nil {
			return "malformed rarlint:unit: " + err.Error()
		}
	case verbGuardedBy:
		if d.arg() == "" {
			return "malformed rarlint:guardedby: missing lock argument (a sibling mutex field, atomic, or init)"
		}
	case verbLocked:
		if d.arg() == "" {
			return "malformed rarlint:locked: missing mutex field name"
		}
	case verbPure, verbHot:
		// Trailing words are commentary.
	default:
		return "unknown rarlint directive //rarlint:" + d.verb +
			" (have allow, guardedby, hot, locked, pure, survives, unit)"
	}
	return ""
}

// attach is the load-time pass binding each positional directive in a
// non-test file to the function or struct field (named or embedded) it
// annotates, visiting declarations in source order.
func (m *Module) attach() {
	m.annots = map[annotKey]*directive{}
	for _, p := range m.Pkgs {
		for _, f := range p.Files {
			byLine := m.dirAt[m.fileName(f)]
			if byLine == nil || m.isTestFile(f) {
				continue
			}
			fieldVars := map[*ast.Field][]types.Object{}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					last := m.Fset.Position(n.Pos()).Line
					first := last - 1
					if n.Doc != nil {
						first = m.Fset.Position(n.Doc.Pos()).Line
					}
					var lines []int
					for l := first; l <= last; l++ {
						lines = append(lines, l)
					}
					var objs []types.Object
					if fn := p.Info.Defs[n.Name]; fn != nil {
						objs = append(objs, fn)
					}
					m.claim(byLine, objs, lines, true)
				case *ast.StructType:
					// A struct's variables follow its field list in order,
					// one per name, one per embedded field.
					st, ok := p.Info.Types[n].Type.(*types.Struct)
					if !ok {
						return true
					}
					i := 0
					for _, fld := range n.Fields.List {
						for range max(1, len(fld.Names)) {
							fieldVars[fld] = append(fieldVars[fld], st.Field(i))
							i++
						}
					}
				case *ast.Field:
					if objs, ok := fieldVars[n]; ok {
						line := m.Fset.Position(n.Pos()).Line
						m.claim(byLine, objs, []int{line, line - 1, line - 2}, false)
					}
				}
				return true
			})
		}
	}
}

// claim binds to a function's or a field's objs, per positional verb,
// the first unclaimed directive on lines (searched in order) that may
// annotate it.
func (m *Module) claim(byLine map[int]*directive, objs []types.Object, lines []int, isFunc bool) {
	taken := map[string]bool{}
	for i, line := range lines {
		d := byLine[line]
		if d == nil || d.used || taken[d.verb] {
			continue
		}
		spec, ok := positional[d.verb]
		if !ok || (isFunc && !spec.onFuncs) || (!isFunc && i >= spec.fieldLines) {
			continue
		}
		d.used, taken[d.verb] = true, true
		for _, obj := range objs {
			m.annots[annotKey{obj, d.verb}] = d
		}
	}
}

// annotation returns the directive of verb attached to obj, or nil.
func (m *Module) annotation(obj types.Object, verb string) *directive {
	return m.annots[annotKey{obj, verb}]
}

// attached reports whether a positional directive annotates anything.
func attached(d *directive) bool { return d.used }

// unattached reports the directives of verb that annotate nothing the
// analyzer audits: a pure directive floating in the middle of a
// function, or a unit annotation on a line holding neither a struct
// field nor a function declaration, silently governs nothing.
func (m *Module) unattached(verb, check string, audited func(*directive) bool) []Diagnostic {
	var diags []Diagnostic
	for _, d := range m.directives {
		if d.verb == verb && !audited(d) {
			diags = append(diags, Diagnostic{Pos: d.pos, Check: check,
				Message: "rarlint:" + verb + " is not attached to " + positional[verb].target})
		}
	}
	return diags
}

// checkDirectives reports every malformed directive as a "lint" finding
// (which cannot itself be suppressed).
func (m *Module) checkDirectives() []Diagnostic {
	var diags []Diagnostic
	for _, d := range m.directives {
		if d.bad != "" {
			diags = append(diags, Diagnostic{Pos: d.pos, Check: "lint", Message: d.bad})
		}
	}
	return diags
}

// allowed reports whether a well-formed allow for check sits on the
// given line, marking it used.
func (m *Module) allowed(check, filename string, line int) bool {
	d := m.dirAt[filename][line]
	if d == nil || d.verb != verbAllow || d.bad != "" || d.arg() != check {
		return false
	}
	d.used = true
	return true
}

// suppress drops diagnostics that have a well-formed matching allow
// directive on their own line or the line directly above, marking the
// directive as used for staleness accounting.
func (m *Module) suppress(diags []Diagnostic) []Diagnostic {
	out := diags[:0]
	for _, d := range diags {
		f, l := d.Pos.Filename, d.Pos.Line
		if d.Check != "lint" && (m.allowed(d.Check, f, l) || m.allowed(d.Check, f, l-1)) {
			continue
		}
		out = append(out, d)
	}
	return out
}

// staleAllows reports every well-formed allow directive that suppressed
// nothing in this run. Only meaningful when every check ran: under a
// -check filter an allow for a disabled check is dormant, not stale.
func (m *Module) staleAllows() []Diagnostic {
	var diags []Diagnostic
	for _, d := range m.directives {
		if d.verb == verbAllow && !d.used && d.bad == "" {
			diags = append(diags, Diagnostic{Pos: d.pos, Check: "lint",
				Message: "stale rarlint:allow " + d.arg() +
					": no " + d.arg() + " finding on this line; remove the directive"})
		}
	}
	return diags
}

// positionAt fabricates a position for directive-level diagnostics.
func positionAt(filename string, line int) token.Position {
	return token.Position{Filename: filename, Line: line, Column: 1}
}
