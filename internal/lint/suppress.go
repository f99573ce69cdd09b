package lint

// rarlint directives. Every directive is a comment of the form
// //rarlint:<verb> ... attached to the line it governs (or the line
// directly above it):
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
// A directive must be well-formed — allow names exactly one existing
// check and carries a reason, survives carries a reason, unit's
// expression must parse, guardedby and locked carry a lock argument —
// and must stay *live*: an allow that no longer
// suppresses anything and a survives that no longer matches a finding
// are themselves reported, so a waiver can never silently rot into a
// blanket exemption. Malformed and stale directives surface as findings
// of the "lint" pseudo-check, which cannot be suppressed.

import (
	"go/ast"
	"go/token"
	"sort"
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

// allow is one parsed //rarlint:allow directive.
type allow struct {
	check  string
	reason string
	used   bool
}

// pureDecl is one parsed //rarlint:pure directive.
type pureDecl struct {
	used bool
}

// survives is one parsed //rarlint:survives directive.
type survives struct {
	reason string
	used   bool
}

// unitDecl is one parsed //rarlint:unit directive.
type unitDecl struct {
	expr string
	used bool
}

// guardedDecl is one parsed //rarlint:guardedby directive. arg names the
// sibling mutex field, or is "atomic" (the field is a sync/atomic value)
// or "init" (set before the struct is shared; never checked).
type guardedDecl struct {
	arg  string
	used bool
}

// lockedDecl is one parsed //rarlint:locked directive: the annotated
// method is only ever called with the receiver's named mutex held.
type lockedDecl struct {
	mu   string
	used bool
}

// hotDecl is one parsed //rarlint:hot directive: the annotated function
// roots the hotalloc allocation-freedom closure.
type hotDecl struct {
	used bool
}

const directivePrefix = "//rarlint:"

// collectDirectives records every rarlint directive in f, keyed by
// filename and line, for suppression matching, analyzer consumption and
// directive validation.
func (m *Module) collectDirectives(filename string, f *ast.File) {
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, directivePrefix) {
				continue
			}
			rest := strings.TrimPrefix(c.Text, directivePrefix)
			verb := rest
			if i := strings.IndexAny(rest, " \t"); i >= 0 {
				verb, rest = rest[:i], rest[i:]
			} else {
				rest = ""
			}
			fields := strings.Fields(rest)
			line := m.Fset.Position(c.Pos()).Line
			switch verb {
			case verbAllow:
				a := &allow{}
				if len(fields) > 0 {
					a.check = fields[0]
				}
				if len(fields) > 1 {
					a.reason = strings.Join(fields[1:], " ")
				}
				addLine(&m.allows, filename, line, a)
			case verbPure:
				// Trailing words are commentary.
				addLine(&m.pures, filename, line, &pureDecl{})
			case verbSurvives:
				addLine(&m.survives, filename, line, &survives{reason: strings.Join(fields, " ")})
			case verbUnit:
				u := &unitDecl{}
				if len(fields) > 0 {
					u.expr = fields[0]
				}
				addLine(&m.units, filename, line, u)
			case verbGuardedBy:
				g := &guardedDecl{}
				if len(fields) > 0 {
					g.arg = fields[0]
				}
				addLine(&m.guardeds, filename, line, g)
			case verbLocked:
				l := &lockedDecl{}
				if len(fields) > 0 {
					l.mu = fields[0]
				}
				addLine(&m.lockeds, filename, line, l)
			case verbHot:
				// Trailing words are commentary.
				addLine(&m.hots, filename, line, &hotDecl{})
			default:
				m.badVerbs = append(m.badVerbs, Diagnostic{
					Pos: positionAt(filename, line), Check: "lint",
					Message: "unknown rarlint directive //rarlint:" + verb +
						" (have allow, guardedby, hot, locked, pure, survives, unit)"})
			}
		}
	}
}

// addLine appends v to a filename→line→[]V map, creating levels as
// needed.
func addLine[V any](m *map[string]map[int][]V, filename string, line int, v V) {
	if *m == nil {
		*m = map[string]map[int][]V{}
	}
	byLine := (*m)[filename]
	if byLine == nil {
		byLine = map[int][]V{}
		(*m)[filename] = byLine
	}
	byLine[line] = append(byLine[line], v)
}

// checkDirectives validates every collected directive's syntax: allow
// needs an existing check name and a reason, survives needs a reason,
// unit needs a parseable unit expression, and the verb itself must
// exist. Violations surface as "lint" findings (which cannot themselves
// be suppressed), and directives are validated even when -checks
// disables the check they serve — a typo must not hide behind a filter.
func (m *Module) checkDirectives() []Diagnostic {
	diags := append([]Diagnostic(nil), m.badVerbs...)
	for filename, byLine := range m.allows {
		for line, allows := range byLine {
			for _, a := range allows {
				pos := positionAt(filename, line)
				switch {
				case a.check == "":
					diags = append(diags, Diagnostic{Pos: pos, Check: "lint",
						Message: "malformed rarlint:allow: missing check name"})
				case !knownCheck(a.check):
					diags = append(diags, Diagnostic{Pos: pos, Check: "lint",
						Message: "malformed rarlint:allow: unknown check " + a.check})
				case a.reason == "":
					diags = append(diags, Diagnostic{Pos: pos, Check: "lint",
						Message: "rarlint:allow " + a.check + " needs a reason"})
				}
			}
		}
	}
	for filename, byLine := range m.survives {
		for line, svs := range byLine {
			for _, s := range svs {
				if s.reason == "" {
					diags = append(diags, Diagnostic{Pos: positionAt(filename, line), Check: "lint",
						Message: "rarlint:survives needs a reason"})
				}
			}
		}
	}
	for filename, byLine := range m.units {
		for line, us := range byLine {
			for _, u := range us {
				if _, err := parseUnit(u.expr); err != nil {
					diags = append(diags, Diagnostic{Pos: positionAt(filename, line), Check: "lint",
						Message: "malformed rarlint:unit: " + err.Error()})
				}
			}
		}
	}
	for filename, byLine := range m.guardeds {
		for line, gs := range byLine {
			for _, g := range gs {
				if g.arg == "" {
					diags = append(diags, Diagnostic{Pos: positionAt(filename, line), Check: "lint",
						Message: "malformed rarlint:guardedby: missing lock argument (a sibling mutex field, atomic, or init)"})
				}
			}
		}
	}
	for filename, byLine := range m.lockeds {
		for line, ls := range byLine {
			for _, l := range ls {
				if l.mu == "" {
					diags = append(diags, Diagnostic{Pos: positionAt(filename, line), Check: "lint",
						Message: "malformed rarlint:locked: missing mutex field name"})
				}
			}
		}
	}
	return diags
}

// suppress drops diagnostics that have a well-formed matching allow
// directive on their own line or the line directly above, marking the
// directive as used for staleness accounting.
func (m *Module) suppress(diags []Diagnostic) []Diagnostic {
	matches := func(d Diagnostic, line int) bool {
		hit := false
		for _, a := range m.allows[d.Pos.Filename][line] {
			if a.check == d.Check && a.reason != "" && knownCheck(a.check) {
				a.used = true
				hit = true
			}
		}
		return hit
	}
	out := diags[:0]
	for _, d := range diags {
		if d.Check != "lint" && (matches(d, d.Pos.Line) || matches(d, d.Pos.Line-1)) {
			continue
		}
		out = append(out, d)
	}
	return out
}

// staleAllows reports every well-formed allow directive that suppressed
// nothing in this run. Only meaningful when every check ran: under a
// -checks filter an allow for a disabled check is dormant, not stale.
func (m *Module) staleAllows() []Diagnostic {
	var diags []Diagnostic
	for filename, byLine := range m.allows {
		for line, allows := range byLine {
			for _, a := range allows {
				if a.used || a.check == "" || !knownCheck(a.check) || a.reason == "" {
					continue // malformed ones are already reported
				}
				diags = append(diags, Diagnostic{Pos: positionAt(filename, line), Check: "lint",
					Message: "stale rarlint:allow " + a.check +
						": no " + a.check + " finding on this line; remove the directive"})
			}
		}
	}
	return diags
}

// pureAt reports whether a pure directive is attached to the given line
// range (a function declaration spans its doc comment through the line
// holding the func keyword), marking matched directives used.
func (m *Module) pureAt(filename string, firstLine, lastLine int) bool {
	hit := false
	byLine := m.pures[filename]
	for line := firstLine; line <= lastLine; line++ {
		for _, d := range byLine[line] {
			d.used = true
			hit = true
		}
	}
	return hit
}

// hotAt reports whether a hot directive is attached to the given line
// range, marking matched directives used.
func (m *Module) hotAt(filename string, firstLine, lastLine int) bool {
	hit := false
	byLine := m.hots[filename]
	for line := firstLine; line <= lastLine; line++ {
		for _, d := range byLine[line] {
			d.used = true
			hit = true
		}
	}
	return hit
}

// lockedAt returns the mutex name of a locked directive attached to the
// given line range (""), marking matched directives used. Malformed
// (argument-less) directives are consumed too — they are already lint
// findings — but yield no contract.
func (m *Module) lockedAt(filename string, firstLine, lastLine int) (string, bool) {
	byLine := m.lockeds[filename]
	for line := firstLine; line <= lastLine; line++ {
		for _, d := range byLine[line] {
			if d.used {
				continue
			}
			d.used = true
			if d.mu == "" {
				return "", false
			}
			return d.mu, true
		}
	}
	return "", false
}

// takeGuarded consumes the first unused guardedby directive in the line
// range, mirroring units' field attachment (same line, else the caller
// retries the line above). Argument-less directives are consumed but
// yield no guard.
func (m *Module) takeGuarded(filename string, firstLine, lastLine int) (*guardedDecl, bool) {
	byLine := m.guardeds[filename]
	for line := firstLine; line <= lastLine; line++ {
		for _, g := range byLine[line] {
			if g.used {
				continue
			}
			g.used = true
			if g.arg == "" {
				return nil, false
			}
			return g, true
		}
	}
	return nil, false
}

// unattachedDirectives reports directives of the given kind that no
// analyzer claimed: a pure directive floating in the middle of a
// function, or a unit annotation on a line holding neither a struct
// field nor a function declaration, silently governs nothing.
func unattachedDirectives[V any](m *Module, kind string, check string,
	dirs map[string]map[int][]V, used func(V) bool) []Diagnostic {
	var diags []Diagnostic
	for filename, byLine := range dirs {
		var lines []int
		for line := range byLine {
			lines = append(lines, line)
		}
		sort.Ints(lines)
		for _, line := range lines {
			for _, d := range byLine[line] {
				if used(d) {
					continue
				}
				diags = append(diags, Diagnostic{Pos: positionAt(filename, line), Check: check,
					Message: "rarlint:" + kind + " is not attached to " + attachTargets[kind]})
			}
		}
	}
	return diags
}

// attachTargets documents what each positional directive must annotate.
var attachTargets = map[string]string{
	verbPure:      "a function declaration",
	verbUnit:      "a struct field or function declaration",
	verbGuardedBy: "a struct field",
	verbLocked:    "a method declaration",
	verbHot:       "a function declaration",
}

// positionAt fabricates a position for directive-level diagnostics.
func positionAt(filename string, line int) token.Position {
	return token.Position{Filename: filename, Line: line, Column: 1}
}
