// Package analysis is a minimal, dependency-free reimplementation of
// the golang.org/x/tools/go/analysis surface the repo's custom vet
// suite needs. The module deliberately has no third-party
// dependencies, so the suite carries its own Analyzer/Pass/Diagnostic
// types and its own package loader (internal/analysis/load) instead of
// importing the x/tools framework.
//
// An Analyzer inspects one fully type-checked package at a time and
// reports Diagnostics. The runner applies the repo-wide suppression
// directive before diagnostics reach the caller:
//
//	//triad:nolint:name1,name2 reason for the exception
//
// suppresses findings from the named analyzers on the directive's own
// line and on the line directly below it (so the directive can sit on
// its own line above the flagged statement). The reason is free text
// and mandatory by convention: a suppression documents why the
// invariant legitimately does not hold at that site.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"reflect"
	"sort"
	"strings"

	"triadtime/internal/analysis/load"
)

// Analyzer is one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //triad:nolint directives. Lower-case, no spaces.
	Name string
	// Doc is a one-paragraph description of what the analyzer enforces.
	Doc string
	// Run inspects one package and reports findings via pass.Reportf.
	// A returned error aborts the whole run (it means the analyzer
	// itself failed, not that the code has findings).
	Run func(*Pass) error
}

// Fact is a piece of knowledge an analyzer attaches to a package-level
// or member object (a function, a struct field) for later passes of
// the same analyzer over dependent packages. Facts are how the suite
// crosses package boundaries without whole-program analysis: each
// package is still analyzed alone, but against its dependencies'
// accumulated facts.
//
// Implementations must be pointer types (so ImportObjectFact can fill
// a caller-allocated value) and carry an AFact marker method.
type Fact interface {
	AFact()
}

// factKey identifies one fact slot: facts are private to their
// analyzer (mirroring x/tools), and one object holds at most one fact
// of each concrete type per analyzer.
type factKey struct {
	analyzer string
	obj      types.Object
	t        reflect.Type
}

// factStore is the run-wide fact accumulator. Packages are analyzed in
// dependency order, so facts flow along import edges: a pass sees
// every fact its package's dependencies exported, never the reverse.
type factStore map[factKey]Fact

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	PkgPath   string
	TypesInfo *types.Info

	facts factStore
	diags *[]Diagnostic
}

// ExportObjectFact attaches fact to obj for this analyzer's passes
// over dependent packages (and for the remainder of this pass). A
// second export of the same fact type to the same object overwrites
// the first.
func (p *Pass) ExportObjectFact(obj types.Object, fact Fact) {
	if obj == nil {
		return
	}
	p.facts[factKey{p.Analyzer.Name, obj, reflect.TypeOf(fact)}] = fact
}

// ImportObjectFact copies the fact of fact's concrete type previously
// exported on obj into fact, reporting whether one existed. The
// loader's source-package reuse guarantees obj identity is stable
// between the exporting pass and this one.
func (p *Pass) ImportObjectFact(obj types.Object, fact Fact) bool {
	if obj == nil {
		return false
	}
	stored, ok := p.facts[factKey{p.Analyzer.Name, obj, reflect.TypeOf(fact)}]
	if !ok {
		return false
	}
	reflect.ValueOf(fact).Elem().Set(reflect.ValueOf(stored).Elem())
	return true
}

// Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Reportf records one finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// nolintPrefix is the suppression directive comment prefix.
const nolintPrefix = "//triad:nolint:"

// suppressions maps filename -> line -> analyzer names suppressed
// there ("all" suppresses every analyzer).
type suppressions map[string]map[int][]string

// collectSuppressions scans every comment in the package for
// //triad:nolint directives.
func collectSuppressions(fset *token.FileSet, files []*ast.File) suppressions {
	sup := suppressions{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, nolintPrefix)
				if !ok {
					continue
				}
				names, _, _ := strings.Cut(rest, " ")
				pos := fset.Position(c.Slash)
				m := sup[pos.Filename]
				if m == nil {
					m = map[int][]string{}
					sup[pos.Filename] = m
				}
				m[pos.Line] = append(m[pos.Line], strings.Split(names, ",")...)
			}
		}
	}
	return sup
}

// suppressed reports whether d is covered by a directive on its line
// or on the line above.
func (s suppressions) suppressed(d Diagnostic) bool {
	m := s[d.Pos.Filename]
	if m == nil {
		return false
	}
	for _, line := range [2]int{d.Pos.Line, d.Pos.Line - 1} {
		for _, name := range m[line] {
			if name == d.Analyzer || name == "all" {
				return true
			}
		}
	}
	return false
}

// Run applies every analyzer to every package, filters suppressed
// findings, and returns the rest sorted by position. Packages must be
// in dependency order (as load.Packages returns them): facts exported
// by a dependency's pass are visible to its dependents' passes.
func Run(pkgs []*load.Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	facts := factStore{}
	for _, pkg := range pkgs {
		sup := collectSuppressions(pkg.Fset, pkg.Files)
		var raw []Diagnostic
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				PkgPath:   pkg.PkgPath,
				TypesInfo: pkg.TypesInfo,
				facts:     facts,
				diags:     &raw,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("analyzer %s on %s: %w", a.Name, pkg.PkgPath, err)
			}
		}
		for _, d := range raw {
			if !sup.suppressed(d) {
				diags = append(diags, d)
			}
		}
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
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}

// PathBase returns the last element of an import path: the package
// directory name the scope-gated analyzers (simdet, lockflow) match
// on.
func PathBase(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}
