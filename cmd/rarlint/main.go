// Command rarlint statically enforces the simulator's correctness
// contracts: determinism of everything feeding the memoized simulation
// cache, hygiene of the statistics that become report columns, coverage
// of every config knob the sweeps claim to vary, error-return
// discipline, purity of the pipeline's query helpers and the report read
// paths (//rarlint:pure), completeness of the runahead exit/flush restore
// set (//rarlint:survives), dimensional consistency of the metrics
// (//rarlint:unit), guarded-by lock discipline (//rarlint:guardedby), and
// allocation-freedom of the hot loop (//rarlint:hot). Pure standard
// library — go/parser, go/ast, go/types — with no external dependencies.
//
// Usage:
//
//	rarlint ./...                 # whole module, all checks (CI mode)
//	rarlint -check hotalloc       # one check (-checks is an alias)
//	rarlint -json ./...           # schema-stable JSON findings for CI
//	rarlint -tests ./...          # load and analyze _test.go files too
//	rarlint path/to/module        # another module root (e.g. a corpus)
//
// Exit status: 0 clean, 1 findings, 2 load error. Audited exceptions are
// annotated in place:
//
//	start := time.Now() //rarlint:allow determinism host-side timing
//
// See README.md ("Static analysis: rarlint") and DESIGN.md §6 and §8
// ("Statically enforced invariants").
package main

import (
	"os"

	"rarsim/internal/lint"
)

func main() {
	os.Exit(lint.Main(os.Args[1:], os.Stdout, os.Stderr))
}
