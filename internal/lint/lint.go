// Package lint implements rarlint, a repo-specific static analyzer that
// enforces the simulator's correctness contracts: determinism of
// everything feeding the memoized simulation cache, hygiene of the
// statistics structs that become report columns, coverage of every
// config knob the experiment sweeps claim to vary, error-return
// discipline in the simulator packages, purity of the pipeline's and the
// report's read paths, completeness of the runahead exit/flush restore
// set (the paper's un-ACE argument), dimensional consistency of the
// metric pipeline, guarded-by lock discipline of the concurrent engine
// front-end, and allocation-freedom of the per-cycle hot loop.
//
// The analyses are whole-module: rarlint loads and type-checks every
// package of the module with go/parser and go/types (standard library
// only — no external dependencies; _test.go files join in with -tests),
// then runs each analyzer over the typed ASTs. Findings carry
// file:line:column positions; the source tree talks back through
// //rarlint: directives —
//
//	//rarlint:allow <check> <reason>     suppress one audited finding
//	//rarlint:pure                       declare a function side-effect-free
//	//rarlint:survives <reason>          waive one runahead-residue field
//	//rarlint:unit <unit-expr>           declare a field's or result's dimension
//	//rarlint:guardedby <mu|atomic|init> declare a field's synchronization story
//	//rarlint:locked <mu>                a method called only with mu held
//	//rarlint:hot                        root the zero-alloc hot-loop closure
//
// each attached to the governed line or the line directly above it.
// Malformed and stale directives are themselves findings. rarlint
// complements the *runtime* invariant auditor in internal/core/audit.go:
// the auditor checks microarchitectural state while a simulation runs,
// rarlint proves source-level contracts before anything runs at all.
package lint

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
	"sync"
)

// Diagnostic is one finding.
type Diagnostic struct {
	// Pos locates the finding.
	Pos token.Position
	// Check names the analyzer that produced it.
	Check string
	// Message describes the violation.
	Message string
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Check, d.Message)
}

// An Analyzer is one named check over a loaded module.
type Analyzer struct {
	// Name is the check name used in -checks and in allow directives.
	Name string
	// Doc is a one-line description.
	Doc string
	// Run reports the analyzer's findings on the module.
	Run func(m *Module) []Diagnostic
}

// Analyzers returns every rarlint check, in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		{
			Name: "determinism",
			Doc:  "wall-clock, global math/rand and order-dependent map iteration in cache-feeding simulator packages",
			Run:  determinism,
		},
		{
			Name: "statshygiene",
			Doc:  "Stats/Metrics fields that are written but never reported, or reported but never written",
			Run:  statsHygiene,
		},
		{
			Name: "configcoverage",
			Doc:  "config knobs declared in internal/config but never read by the simulator",
			Run:  configCoverage,
		},
		{
			Name: "errdiscipline",
			Doc:  "discarded error returns in non-test internal packages",
			Run:  errDiscipline,
		},
		{
			Name: "purity",
			Doc:  "side effects reachable from //rarlint:pure functions (pipeline queries and report read paths)",
			Run:  purity,
		},
		{
			Name: "flushreset",
			Doc:  "state written on runahead paths but not restored by exit/flush (the flush-at-exit un-ACE contract)",
			Run:  flushReset,
		},
		{
			Name: "units",
			Doc:  "dimensional analysis over //rarlint:unit-annotated stats, energy and metrics expressions",
			Run:  unitsCheck,
		},
		{
			Name: "lockcheck",
			Doc:  "guarded-by discipline of //rarlint:guardedby fields: mutex held at every access, no double lock, no return-while-held",
			Run:  lockcheck,
		},
		{
			Name: "hotalloc",
			Doc:  "allocation-freedom of every function reachable from //rarlint:hot roots (the zero-alloc per-cycle loop contract)",
			Run:  hotalloc,
		},
	}
}

// AnalyzerNames returns the names of every check.
func AnalyzerNames() []string {
	var names []string
	for _, a := range Analyzers() {
		names = append(names, a.Name)
	}
	return names
}

// Run loads nothing itself: it runs the named checks (all of them when
// checks is empty) over an already loaded module, applies //rarlint:allow
// suppressions, and returns the surviving findings sorted by position.
func Run(m *Module, checks []string) ([]Diagnostic, error) {
	enabled := map[string]bool{}
	for _, c := range checks {
		c = strings.TrimSpace(c)
		if c == "" {
			continue
		}
		if !knownCheck(c) {
			return nil, fmt.Errorf("lint: unknown check %q (have %s)", c, strings.Join(AnalyzerNames(), ", "))
		}
		enabled[c] = true
	}

	// The analyzers are independent and run concurrently: each consumes
	// the shared read-only typed ASTs (token.FileSet is internally
	// synchronized) and each mutable directive kind is claimed by exactly
	// one analyzer (pures by purity, survives by flushreset, units by
	// units, guardeds/lockeds by lockcheck, hots and allow-barriers by
	// hotalloc). Suppression and
	// staleness accounting stay sequential, after the barrier. Findings
	// are collected per-analyzer and ordering is restored by the final
	// position sort, so the output is deterministic regardless of
	// scheduling.
	all := Analyzers()
	results := make([][]Diagnostic, len(all))
	var wg sync.WaitGroup
	for i, a := range all {
		if len(enabled) > 0 && !enabled[a.Name] {
			continue
		}
		wg.Add(1)
		go func(i int, a *Analyzer) {
			defer wg.Done()
			results[i] = a.Run(m)
		}(i, a)
	}
	wg.Wait()
	var diags []Diagnostic
	for _, r := range results {
		diags = append(diags, r...)
	}
	diags = append(diags, m.checkDirectives()...)
	diags = m.suppress(diags)
	if len(enabled) == 0 || len(enabled) == len(all) {
		// Staleness is decidable only when every check ran: under a
		// -checks filter an allow for a disabled check is dormant, not
		// stale.
		diags = append(diags, m.staleAllows()...)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		return a.Message < b.Message
	})
	return diags, nil
}

// knownCheck reports whether name is a registered analyzer.
func knownCheck(name string) bool {
	for _, a := range Analyzers() {
		if a.Name == name {
			return true
		}
	}
	return false
}
