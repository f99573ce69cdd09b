package lint

// Module loading: discover every package in a Go module, parse it with
// go/parser and type-check it with go/types, using only the standard
// library. The loader skips _test.go files by default — rarlint's
// contracts are about shipped simulator code — and skips testdata/,
// vendor/ and hidden directories, mirroring the go tool's own rules.
// LoadModuleWithTests opts test files in: in-package _test.go files
// augment their package, external <pkg>_test files become their own
// package, and Module.isTestFile lets each analyzer decide whether test
// code is in its scope (determinism and errdiscipline include it; the
// struct-shape analyses do not).

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed and type-checked package of the module.
type Package struct {
	// Path is the full import path ("rarsim/internal/sim").
	Path string
	// Dir is the absolute directory the package was loaded from.
	Dir string
	// Files are the parsed non-test files, sorted by filename.
	Files []*ast.File
	// Types is the type-checked package.
	Types *types.Package
	// Info holds the type-checker's resolution maps for Files.
	Info *types.Info
}

// Module is a fully loaded Go module.
type Module struct {
	// Path is the module path from go.mod ("rarsim").
	Path string
	// Dir is the module root (the directory holding go.mod).
	Dir string
	// Fset positions every file in the module.
	Fset *token.FileSet
	// Pkgs lists every package, sorted by import path.
	Pkgs []*Package

	// Directive indexes: filename -> line -> directives found in that
	// file's comments (see suppress.go).
	allows   map[string]map[int][]*allow
	pures    map[string]map[int][]*pureDecl
	survives map[string]map[int][]*survives
	units    map[string]map[int][]*unitDecl
	guardeds map[string]map[int][]*guardedDecl
	lockeds  map[string]map[int][]*lockedDecl
	hots     map[string]map[int][]*hotDecl
	// badVerbs records comments with an unknown //rarlint: verb.
	badVerbs []Diagnostic

	// testFiles records the _test.go files loaded in tests mode.
	testFiles map[string]bool
}

// fileName returns the filename an *ast.File was parsed from.
func (m *Module) fileName(f *ast.File) string {
	return m.Fset.Position(f.Package).Filename
}

// isTestFile reports whether f is a _test.go file (only ever true in
// tests mode; the default loader does not parse them).
func (m *Module) isTestFile(f *ast.File) bool {
	return m.testFiles[m.fileName(f)]
}

// isTestPos reports whether pos lies in a _test.go file.
func (m *Module) isTestPos(pos token.Pos) bool {
	return m.testFiles[m.Fset.Position(pos).Filename]
}

// IsInternal reports whether p lives under <module>/internal/.
func (m *Module) IsInternal(p *Package) bool {
	return strings.HasPrefix(p.Path, m.Path+"/internal/")
}

// determinismScoped lists the internal packages whose state feeds
// memoized simulation results: a nondeterminism bug here poisons the
// engine cache and every figure built from it.
var determinismScoped = []string{"core", "sim", "trace", "ace", "experiments", "metrics"}

// IsDeterminismScoped reports whether p is one of the cache-feeding
// simulator packages the determinism analyzer's map-iteration check
// covers.
func (m *Module) IsDeterminismScoped(p *Package) bool {
	for _, name := range determinismScoped {
		prefix := m.Path + "/internal/" + name
		if p.Path == prefix || strings.HasPrefix(p.Path, prefix+"/") {
			return true
		}
	}
	return false
}

// IsConfigPackage reports whether p is the module's configuration
// package (the home of the sweep knobs configcoverage audits).
func (m *Module) IsConfigPackage(p *Package) bool {
	return p.Path == m.Path+"/internal/config"
}

// loader resolves imports for the module being checked: module-local
// paths load (and type-check) from source, everything else goes to the
// toolchain's importer.
type loader struct {
	mod      *Module
	std      types.Importer
	stdSrc   types.Importer
	pkgs     map[string]*Package
	building map[string]bool
	tests    bool
}

// LoadModule loads, parses and type-checks every non-test package of
// the module rooted at dir (which must contain go.mod).
func LoadModule(dir string) (*Module, error) {
	return loadModule(dir, false)
}

// LoadModuleWithTests is LoadModule with _test.go files included:
// in-package test files join their package's file set, external
// <pkg>_test files form an extra package with an importable-by-nobody
// "<path>_test" path.
func LoadModuleWithTests(dir string) (*Module, error) {
	return loadModule(dir, true)
}

func loadModule(dir string, tests bool) (*Module, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(dir, "go.mod"))
	if err != nil {
		return nil, err
	}
	m := &Module{
		Path:      modPath,
		Dir:       dir,
		Fset:      token.NewFileSet(),
		testFiles: map[string]bool{},
	}
	l := &loader{
		mod:      m,
		std:      importer.ForCompiler(m.Fset, "gc", nil),
		stdSrc:   importer.ForCompiler(m.Fset, "source", nil),
		pkgs:     map[string]*Package{},
		building: map[string]bool{},
		tests:    tests,
	}

	dirs, err := packageDirs(dir, tests)
	if err != nil {
		return nil, err
	}
	for _, d := range dirs {
		if _, err := l.loadDir(d); err != nil {
			return nil, err
		}
	}
	for _, p := range l.pkgs {
		m.Pkgs = append(m.Pkgs, p)
	}
	sort.Slice(m.Pkgs, func(i, j int) bool { return m.Pkgs[i].Path < m.Pkgs[j].Path })
	return m, nil
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", fmt.Errorf("lint: not a module root: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s", gomod)
}

// packageDirs returns every directory under root holding at least one
// non-test .go file (any .go file in tests mode), skipping testdata,
// vendor and hidden directories.
func packageDirs(root string, tests bool) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (name == "testdata" || name == "vendor" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		ents, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		for _, e := range ents {
			if goSource(e.Name()) || (tests && goTestSource(e.Name())) {
				dirs = append(dirs, path)
				break
			}
		}
		return nil
	})
	sort.Strings(dirs)
	return dirs, err
}

// goSource reports whether name is a non-test Go source file.
func goSource(name string) bool {
	return strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go")
}

// goTestSource reports whether name is a Go test file.
func goTestSource(name string) bool {
	return strings.HasSuffix(name, "_test.go")
}

// importPathFor maps a module-local directory to its import path.
func (l *loader) importPathFor(dir string) (string, error) {
	rel, err := filepath.Rel(l.mod.Dir, dir)
	if err != nil {
		return "", err
	}
	if rel == "." {
		return l.mod.Path, nil
	}
	return l.mod.Path + "/" + filepath.ToSlash(rel), nil
}

// dirFor maps a module-local import path back to its directory.
func (l *loader) dirFor(path string) string {
	if path == l.mod.Path {
		return l.mod.Dir
	}
	rel := strings.TrimPrefix(path, l.mod.Path+"/")
	return filepath.Join(l.mod.Dir, filepath.FromSlash(rel))
}

// Import implements types.Importer for the module's type-checker.
func (l *loader) Import(path string) (*types.Package, error) {
	if path == l.mod.Path || strings.HasPrefix(path, l.mod.Path+"/") {
		p, err := l.loadDir(l.dirFor(path))
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	pkg, err := l.std.Import(path)
	if err != nil {
		// The compiled-export importer needs build-cache artifacts;
		// fall back to type-checking the dependency from source.
		pkg, err = l.stdSrc.Import(path)
	}
	return pkg, err
}

// loadDir parses and type-checks the package in dir (once; later calls
// return the cached package).
func (l *loader) loadDir(dir string) (*Package, error) {
	path, err := l.importPathFor(dir)
	if err != nil {
		return nil, err
	}
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	if l.building[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	l.building[path] = true
	defer delete(l.building, path)

	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	// In tests mode in-package _test.go files augment the package (safe:
	// they can never be imported, so importers see a superset), while
	// external <pkg>_test files become their own package checked after —
	// and importing — the base one.
	var files, extFiles []*ast.File
	for _, e := range ents {
		isTest := goTestSource(e.Name())
		if !goSource(e.Name()) && !(l.tests && isTest) {
			continue
		}
		fname := filepath.Join(dir, e.Name())
		f, err := parser.ParseFile(l.mod.Fset, fname, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		l.mod.collectDirectives(fname, f)
		if isTest {
			l.mod.testFiles[fname] = true
			if strings.HasSuffix(f.Name.Name, "_test") {
				extFiles = append(extFiles, f)
				continue
			}
		}
		files = append(files, f)
	}
	if len(files) == 0 && len(extFiles) == 0 {
		return nil, fmt.Errorf("lint: no Go source in %s", dir)
	}

	check := func(pkgPath string, fs []*ast.File) (*Package, error) {
		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Implicits:  map[ast.Node]types.Object{},
			Scopes:     map[ast.Node]*types.Scope{},
		}
		var typeErrs []error
		conf := types.Config{
			Importer: l,
			Error:    func(err error) { typeErrs = append(typeErrs, err) },
		}
		tpkg, _ := conf.Check(pkgPath, l.mod.Fset, fs, info)
		if len(typeErrs) > 0 {
			return nil, fmt.Errorf("lint: type-checking %s: %w", pkgPath, typeErrs[0])
		}
		return &Package{Path: pkgPath, Dir: dir, Files: fs, Types: tpkg, Info: info}, nil
	}

	var p *Package
	if len(files) > 0 {
		if p, err = check(path, files); err != nil {
			return nil, err
		}
		l.pkgs[path] = p
	}
	if len(extFiles) > 0 {
		// The "_test" path suffix keeps the external test package out of
		// the importable namespace; its imports of the base package hit
		// the cache entry stored just above.
		tp, err := check(path+"_test", extFiles)
		if err != nil {
			return nil, err
		}
		l.pkgs[path+"_test"] = tp
		if p == nil {
			p = tp
		}
	}
	return p, nil
}
