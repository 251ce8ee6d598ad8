package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// A Package is one parsed, type-checked package of the module. Only non-test
// files are loaded: the invariants ovslint guards protect production paths,
// and test files legitimately compare floats, range maps, and measure time.
type Package struct {
	// Path is the import path, e.g. "ovs/internal/tensor".
	Path string
	// Dir is the absolute directory the files were read from.
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// A Loader parses and type-checks every non-test package under a module
// root using only the standard library. Module-internal imports are resolved
// by the loader itself (each directory is checked exactly once and cached);
// standard-library imports fall back to go/importer's source importer.
type Loader struct {
	Fset *token.FileSet

	// Tests additionally loads each package's in-package _test.go files
	// (external foo_test packages are skipped: they cannot join the package
	// they test in a single type-check unit). Set it before the first load.
	Tests bool

	root   string // absolute module root (directory containing go.mod)
	module string // module path from go.mod
	cache  map[string]*Package
	std    types.ImporterFrom
	// TypeErrors collects type-checker errors without aborting the load,
	// so a partially broken package still gets best-effort linting.
	TypeErrors []error
}

var moduleDirective = regexp.MustCompile(`(?m)^module\s+(\S+)`)

// NewLoader builds a loader for the module rooted at root (the directory
// containing go.mod).
func NewLoader(root string) (*Loader, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(filepath.Join(abs, "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("lint: module root %s: %w", abs, err)
	}
	m := moduleDirective.FindSubmatch(data)
	if m == nil {
		return nil, fmt.Errorf("lint: no module directive in %s/go.mod", abs)
	}
	fset := token.NewFileSet()
	std, ok := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	if !ok {
		return nil, fmt.Errorf("lint: source importer does not implement ImporterFrom")
	}
	return &Loader{
		Fset:   fset,
		root:   abs,
		module: string(m[1]),
		cache:  make(map[string]*Package),
		std:    std,
	}, nil
}

// FindModuleRoot walks upward from dir to the nearest directory containing
// go.mod.
func FindModuleRoot(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(abs, "go.mod")); err == nil {
			return abs, nil
		}
		parent := filepath.Dir(abs)
		if parent == abs {
			return "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		abs = parent
	}
}

// LoadAll parses and type-checks every non-test package in the module, in
// deterministic (sorted import path) order.
func (l *Loader) LoadAll() ([]*Package, error) {
	dirs, err := l.PackageDirs()
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, dir := range dirs {
		path := l.importPathFor(dir)
		pkg, err := l.load(path, dir)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// PackageDirs returns every package directory of the module in sorted order,
// without parsing or type-checking anything. The driver uses it to load the
// packages one at a time, observing cancellation between them.
func (l *Loader) PackageDirs() ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(l.root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != l.root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		if hasGoFiles(path) {
			dirs = append(dirs, path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	return dirs, nil
}

// Load loads (or returns the cached) package in dir.
func (l *Loader) Load(dir string) (*Package, error) {
	return l.load(l.importPathFor(dir), dir)
}

func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		if !e.IsDir() && includeFile(dir, e.Name()) {
			return true
		}
	}
	return false
}

// includeFile reports whether name belongs to the package as built on the
// host: non-test Go files whose filename suffix and //go:build constraints
// match the current GOOS/GOARCH. Without this filter, mutually exclusive
// files (foo_amd64.go vs foo_noasm.go) would both load and their stub
// declarations would collide, flooding TypeErrors and degrading the
// type-sensitive analyzers.
func includeFile(dir, name string) bool {
	if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
		return false
	}
	match, err := build.Default.MatchFile(dir, name)
	return err == nil && match
}

// includeTestFile reports whether name is a _test.go file that builds on the
// host.
func includeTestFile(dir, name string) bool {
	if !strings.HasSuffix(name, "_test.go") {
		return false
	}
	match, err := build.Default.MatchFile(dir, name)
	return err == nil && match
}

func (l *Loader) importPathFor(dir string) string {
	rel, err := filepath.Rel(l.root, dir)
	if err != nil || rel == "." {
		return l.module
	}
	return l.module + "/" + filepath.ToSlash(rel)
}

// load parses and type-checks the package in dir, caching by import path.
func (l *Loader) load(path, dir string) (*Package, error) {
	if pkg, ok := l.cache[path]; ok {
		return pkg, nil
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range ents {
		if e.IsDir() || !includeFile(dir, e.Name()) {
			continue
		}
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: parse %s: %w", e.Name(), err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no non-test Go files in %s", dir)
	}
	if l.Tests {
		pkgName := files[0].Name.Name
		for _, e := range ents {
			if e.IsDir() || !includeTestFile(dir, e.Name()) {
				continue
			}
			f, err := parser.ParseFile(l.Fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
			if err != nil {
				return nil, fmt.Errorf("lint: parse %s: %w", e.Name(), err)
			}
			// External test packages (package foo_test) cannot join foo in
			// one type-check unit; only in-package test files are linted.
			if f.Name.Name == pkgName {
				files = append(files, f)
			}
		}
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { l.TypeErrors = append(l.TypeErrors, err) },
	}
	//ovslint:ignore ignorederr type errors are collected through conf.Error so linting stays best-effort
	tpkg, _ := conf.Check(path, l.Fset, files, info)
	pkg := &Package{Path: path, Dir: dir, Fset: l.Fset, Files: files, Types: tpkg, Info: info}
	l.cache[path] = pkg
	return pkg, nil
}

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, l.root, 0)
}

// ImportFrom implements types.ImporterFrom: module-internal paths are loaded
// from source by the loader, everything else is delegated to the standard
// library's source importer.
func (l *Loader) ImportFrom(path, srcDir string, mode types.ImportMode) (*types.Package, error) {
	if path == l.module || strings.HasPrefix(path, l.module+"/") {
		dir := filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(path, l.module)))
		pkg, err := l.load(path, dir)
		if err != nil {
			return nil, err
		}
		if pkg.Types == nil {
			return nil, fmt.Errorf("lint: package %s failed to type-check", path)
		}
		return pkg.Types, nil
	}
	return l.std.ImportFrom(path, srcDir, mode)
}
