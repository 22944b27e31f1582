// Command detlint is a determinism linter for the simulation engine and
// its satellites: packages whose outputs must be bit-reproducible across
// runs and Go releases. It is stdlib-only (go/parser, and go/types over
// the source importer, so it needs no compiled export data) and flags
// five hazard classes:
//
//  1. importing math/rand (seeded or not, stream stability is not
//     guaranteed across Go releases; the repo uses its own splitmix64),
//  2. calling time.Now (wall-clock reads make virtual-time runs diverge),
//  3. ranging over any map-typed expression, wherever its type is
//     declared (iteration order is randomized) — except the
//     collect-keys-then-sort idiom, where the loop body is a single
//     `xs = append(xs, k)` statement,
//  4. launching a bare goroutine (`go f()`) — unsynchronized concurrency
//     makes effect order host-dependent; engine packages must route
//     parallel work through sim.Pool, whose results are applied in
//     canonical event order,
//  5. using sync.Map — its iteration and internal promotion behaviour are
//     unordered and unsynchronized with the virtual clock; use an ordinary
//     map plus deterministic ordering (or sim.Pool futures).
//
// A finding is suppressed by a `//detlint:ignore <reason>` comment on the
// offending line or the line directly above it.
package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// finding is one determinism hazard.
type finding struct {
	pos  token.Position
	rule string
	msg  string
}

func (f finding) String() string {
	return fmt.Sprintf("%s:%d: %s: %s", f.pos.Filename, f.pos.Line, f.rule, f.msg)
}

// lintPackage type-checks one package's files, resolving their imports
// with imp, and returns the files' findings.
func lintPackage(fset *token.FileSet, files []*ast.File, imp types.Importer) ([]finding, error) {
	info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}}
	conf := types.Config{Importer: imp}
	if _, err := conf.Check(files[0].Name.Name, fset, files, info); err != nil {
		return nil, err
	}
	var out []finding
	for _, file := range files {
		l := &linter{fset: fset, file: file, info: info}
		l.collectIgnores()
		l.collectTimeName()
		l.run()
		out = append(out, l.findings...)
	}
	return out, nil
}

type linter struct {
	fset     *token.FileSet
	file     *ast.File
	findings []finding

	// ignores maps line numbers carrying a detlint:ignore comment.
	ignores map[int]bool
	// timeName is the local import name of the "time" package ("" if not
	// imported).
	timeName string
	// syncName is the local import name of the "sync" package ("" if not
	// imported).
	syncName string
	// info holds the type of every expression of the file's package.
	info *types.Info
}

func (l *linter) report(pos token.Pos, rule, msg string) {
	p := l.fset.Position(pos)
	if l.ignores[p.Line] || l.ignores[p.Line-1] {
		return
	}
	l.findings = append(l.findings, finding{pos: p, rule: rule, msg: msg})
}

func (l *linter) collectIgnores() {
	l.ignores = map[int]bool{}
	for _, cg := range l.file.Comments {
		for _, c := range cg.List {
			text := strings.TrimPrefix(c.Text, "//")
			text = strings.TrimSpace(text)
			if strings.HasPrefix(text, "detlint:ignore") {
				l.ignores[l.fset.Position(c.Pos()).Line] = true
			}
		}
	}
}

func (l *linter) collectTimeName() {
	for _, imp := range l.file.Imports {
		switch strings.Trim(imp.Path.Value, `"`) {
		case "time":
			l.timeName = "time"
			if imp.Name != nil {
				l.timeName = imp.Name.Name
			}
		case "sync":
			l.syncName = "sync"
			if imp.Name != nil {
				l.syncName = imp.Name.Name
			}
		}
	}
}

func (l *linter) run() {
	for _, imp := range l.file.Imports {
		path := strings.Trim(imp.Path.Value, `"`)
		if path == "math/rand" || path == "math/rand/v2" {
			l.report(imp.Pos(), "rand-import",
				"math/rand streams are not stable across Go releases; use the repo's seeded splitmix64")
		}
	}
	ast.Inspect(l.file, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			if sel, ok := x.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Now" {
				if id, ok := sel.X.(*ast.Ident); ok && l.timeName != "" && id.Name == l.timeName {
					l.report(x.Pos(), "time-now",
						"wall-clock read in a virtual-time package; thread the simulated clock instead")
				}
			}
		case *ast.RangeStmt:
			if l.rangesOverMap(x.X) && !isCollectKeysBody(x.Body) {
				l.report(x.Pos(), "map-iteration",
					"map iteration order is randomized; collect keys and sort, or iterate a sorted slice")
			}
		case *ast.GoStmt:
			l.report(x.Pos(), "bare-goroutine",
				"bare goroutine in an engine package; route parallel work through sim.Pool so effects apply in canonical event order")
		case *ast.SelectorExpr:
			if l.syncName != "" && x.Sel.Name == "Map" {
				if id, ok := x.X.(*ast.Ident); ok && id.Name == l.syncName {
					l.report(x.Pos(), "sync-map",
						"sync.Map is unordered and unsynchronized with the virtual clock; use a plain map with deterministic ordering or sim.Pool futures")
				}
			}
		}
		return true
	})
}

// rangesOverMap reports whether e's type is a map, whichever package
// declares it.
func (l *linter) rangesOverMap(e ast.Expr) bool {
	t := l.info.TypeOf(e)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// isCollectKeysBody recognizes the allowed idiom: a body consisting of a
// single `xs = append(xs, expr)` statement (keys are collected, then sorted
// outside the loop).
func isCollectKeysBody(body *ast.BlockStmt) bool {
	if body == nil || len(body.List) != 1 {
		return false
	}
	as, ok := body.List[0].(*ast.AssignStmt)
	if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return false
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok {
		return false
	}
	fn, ok := call.Fun.(*ast.Ident)
	return ok && fn.Name == "append"
}
