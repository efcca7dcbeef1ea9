// Package analysis is treegion-vet: a static-analysis suite over the
// repository's own invariants. Every performance PR in this tree is
// certified by one property — schedules are byte-identical and
// deterministic in (IR, profile, config) — and the analyzers here encode
// the defect classes that would silently break it: map-iteration order
// leaking into output (detmap), mixed atomic/plain field access
// (atomicity), pooled scratch escaping into results (arenaescape), wall
// clock feeding result fields (wallclock), HTTP handlers bypassing the
// shared error schema (apierr), and fixed-width codec records drifting
// from their declared sizes (recsize).
//
// The driver is stdlib-only: packages are discovered with `go list`,
// parsed with go/parser and type-checked with go/types; there is no
// dependency on golang.org/x/tools. See DESIGN.md §14 for the analyzer
// inventory and the annotation syntax.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding, locatable and machine-readable. The JSON
// field set is the contract of `treegion-vet -json`.
type Diagnostic struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.File, d.Line, d.Col, d.Analyzer, d.Message)
}

// Analyzer is one invariant checker. Exactly one of Run and RunGlobal is
// set: Run sees one package at a time; RunGlobal sees every loaded package
// in one call (atomicity needs the whole program to pair atomic and plain
// accesses across packages).
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
	// RunGlobal runs once with a pass per loaded package.
	RunGlobal func([]*Pass)
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Path is the package's import path. External test packages carry the
	// "_test" suffix; CriticalPath strips it for policy matching.
	Path  string
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
	Dirs  *Directives

	diags *[]Diagnostic
}

// CriticalPath is the import path used for policy matching: external test
// packages answer for the package they test.
func (p *Pass) CriticalPath() string {
	return strings.TrimSuffix(p.Path, "_test")
}

// Reportf records a finding at pos unless a suppression directive covers
// it. detmap findings are suppressed by //det:ordered; every analyzer is
// suppressed by a matching //vet:ignore <analyzer> <why>. A directive
// covers its own line, the statement starting on the line below it, and
// everything lexically inside that statement.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.Dirs.Suppresses(p.Analyzer.Name, position.Filename, position.Line) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf is a nil-safe Info.TypeOf.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Info.TypeOf(e) }

// ObjectOf resolves an identifier to its object (use or def).
func (p *Pass) ObjectOf(id *ast.Ident) types.Object {
	if o := p.Info.Uses[id]; o != nil {
		return o
	}
	return p.Info.Defs[id]
}

// CalleeFunc resolves call's callee to a *types.Func (function or method),
// or nil for builtins, conversions and indirect calls through plain vars.
func (p *Pass) CalleeFunc(call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := p.ObjectOf(id).(*types.Func)
	return fn
}

// Analyzers is the full suite in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		DetmapAnalyzer,
		AtomicityAnalyzer,
		ArenaEscapeAnalyzer,
		WallclockAnalyzer,
		APIErrAnalyzer,
		RecSizeAnalyzer,
	}
}

// Run executes the analyzers over the packages and returns the findings in
// stable order (file, line, col, analyzer, message). Directive validation
// (unjustified or mistargeted suppressions) runs as part of every call, so
// suppression debt cannot hide a malformed annotation.
func Run(fset *token.FileSet, pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	pass := func(a *Analyzer, pkg *Package) *Pass {
		return &Pass{
			Analyzer: a,
			Fset:     fset,
			Path:     pkg.Path,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			Dirs:     pkg.Dirs,
			diags:    &diags,
		}
	}
	for _, a := range analyzers {
		if a.RunGlobal != nil {
			passes := make([]*Pass, len(pkgs))
			for i, pkg := range pkgs {
				passes[i] = pass(a, pkg)
			}
			a.RunGlobal(passes)
			continue
		}
		for _, pkg := range pkgs {
			a.Run(pass(a, pkg))
		}
	}
	for _, pkg := range pkgs {
		diags = append(diags, ValidateDirectives(pkg, analyzers)...)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return diags
}
