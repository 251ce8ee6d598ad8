package lint

import (
	"context"

	"ovs/internal/parallel"
)

// This file implements the analyzer driver: per-(package × analyzer) fan-out
// over internal/parallel with deterministic output ordering.
//
// Determinism contract: diagnostics are ordered by (package path, position,
// analyzer) regardless of worker count. Each (package, analyzer) unit writes
// only its own slot of the results slice, and the merge walks slots in index
// order, so the output is a pure function of the sources.

// A Driver runs a set of analyzers over the module's packages.
type Driver struct {
	Loader    *Loader
	Analyzers []*Analyzer
	// Workers bounds the analysis fan-out; 0 means the process default.
	Workers int
}

// A PackageResult is the outcome for one package.
type PackageResult struct {
	Path  string
	Diags []Diagnostic
}

// RunCtx analyzes every package of the module and returns per-package
// results in sorted import-path order. The serial load loop checks ctx
// between packages and the analysis fan-out stops claiming units once ctx is
// done; a cancelled run returns context.Cause(ctx) and no results.
func (d *Driver) RunCtx(ctx context.Context) ([]PackageResult, error) {
	dirs, err := d.Loader.PackageDirs()
	if err != nil {
		return nil, err
	}

	pkgs := make([]*Package, len(dirs))
	for i, dir := range dirs {
		if err := ctx.Err(); err != nil {
			return nil, context.Cause(ctx)
		}
		// Loading is serial: the loader's file set and package cache are
		// shared mutable state. Analysis below is the parallel part.
		pkgs[i], err = d.Loader.Load(dir)
		if err != nil {
			return nil, err
		}
	}

	// Fan out one unit per (package, analyzer), package-major. Units only
	// read the shared AST/type info and write their own slot.
	na := len(d.Analyzers)
	raws := make([][]rawDiag, len(pkgs)*na)
	err = parallel.ForWorkersCtx(ctx, d.Workers, len(raws), 1, func(lo, hi int) {
		for u := lo; u < hi; u++ {
			raws[u] = runAnalyzer(pkgs[u/na], d.Analyzers[u%na])
		}
	})
	if err != nil {
		return nil, err
	}
	results := make([]PackageResult, len(pkgs))
	for p, pkg := range pkgs {
		var raw []rawDiag
		for _, r := range raws[p*na : (p+1)*na] {
			raw = append(raw, r...)
		}
		results[p] = PackageResult{Path: pkg.Path, Diags: finishPackage(pkg, raw)}
	}
	return results, nil
}
