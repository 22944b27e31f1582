package ir

import (
	"fmt"
	"strings"

	"repro/internal/interp"
	"repro/internal/minic"
)

// stmtInfo is the rewrite index's record of one statement, which the
// lowerer records as it walks a function body (Lowered holds an
// expression's).
type stmtInfo struct {
	// slot holds the statement, so it can be deleted, substituted or
	// wrapped. Pragma statements and their region bodies get none: the
	// GPU executor holds pointers to those exact nodes, so only their
	// contents are optimized.
	slot *minic.Stmt
	// blk and idx locate a statement listed directly in a Block, for
	// insert-before splicing; blk is nil elsewhere.
	blk *minic.Block
	idx int
}

// literalFor builds the AST literal for a constant, preserving the
// original expression's static type and position.
func literalFor(c interp.Value, orig minic.Expr) minic.Expr {
	if c.Kind == interp.ValFloat {
		l := &minic.FloatLit{Value: c.F()}
		l.Pos = minic.NodePos(orig)
		l.SetType(orig.Type())
		return l
	}
	l := &minic.IntLit{Value: c.I}
	l.Pos = minic.NodePos(orig)
	l.SetType(orig.Type())
	return l
}

func isLiteral(e minic.Expr) bool {
	switch e.(type) {
	case *minic.IntLit, *minic.FloatLit, *minic.CharLit:
		return true
	}
	return false
}

// CountNodes counts AST nodes (statements and expressions) in a program;
// the optimizer's headline statistic is nodes removed, since the
// interpreter's cost model charges per visited node.
func CountNodes(prog *minic.Program) int {
	n := 0
	for _, fn := range prog.Funcs {
		n += countStmtNodes(fn.Body)
	}
	return n
}

func countStmtNodes(s minic.Stmt) int {
	n := 0
	minic.WalkStmts(s, func(st minic.Stmt) {
		n++
		minic.StmtExprs(st, func(e minic.Expr) { n += countExprNodes(e) })
	})
	return n
}

func countExprNodes(e minic.Expr) int {
	n := 0
	minic.Inspect(e, func(minic.Expr) bool { n++; return true })
	return n
}

// exprKey renders a structural key for an expression, used to deduplicate
// loop-invariant candidates. Identifiers key on symbol identity (pointer
// formatting) so shadowed names don't collide.
func exprKey(e minic.Expr) string {
	var b strings.Builder
	writeExprKey(&b, e)
	return b.String()
}

func writeExprKey(b *strings.Builder, e minic.Expr) {
	switch x := e.(type) {
	case nil:
		b.WriteString("∅")
	case *minic.IntLit:
		fmt.Fprintf(b, "i%d", x.Value)
	case *minic.FloatLit:
		fmt.Fprintf(b, "f%x", x.Value)
	case *minic.CharLit:
		fmt.Fprintf(b, "c%d", x.Value)
	case *minic.Ident:
		fmt.Fprintf(b, "v%p", x.Sym)
	case *minic.Unary:
		b.WriteString("(u")
		b.WriteString(x.Op)
		writeExprKey(b, x.X)
		b.WriteString(")")
	case *minic.Binary:
		b.WriteString("(b")
		b.WriteString(x.Op)
		writeExprKey(b, x.L)
		b.WriteString(",")
		writeExprKey(b, x.R)
		b.WriteString(")")
	case *minic.Cast:
		fmt.Fprintf(b, "(cast%v", x.To)
		writeExprKey(b, x.X)
		b.WriteString(")")
	case *minic.Call:
		b.WriteString("(call ")
		b.WriteString(x.Name)
		for _, a := range x.Args {
			b.WriteString(",")
			writeExprKey(b, a)
		}
		b.WriteString(")")
	default:
		fmt.Fprintf(b, "?%p", e)
	}
}

// cloneExpr deep-copies an invariant expression (literals, identifiers,
// pure operators) so it can be moved into a temp initializer while the
// original occurrences are replaced. Only node kinds the invariance check
// admits need cloning.
func cloneExpr(e minic.Expr) minic.Expr {
	switch x := e.(type) {
	case *minic.IntLit:
		c := *x
		return &c
	case *minic.FloatLit:
		c := *x
		return &c
	case *minic.CharLit:
		c := *x
		return &c
	case *minic.Ident:
		c := *x
		return &c
	case *minic.Unary:
		c := *x
		c.X = cloneExpr(x.X)
		return &c
	case *minic.Binary:
		c := *x
		c.L = cloneExpr(x.L)
		c.R = cloneExpr(x.R)
		return &c
	case *minic.Cast:
		c := *x
		c.X = cloneExpr(x.X)
		return &c
	case *minic.Call:
		c := *x
		c.Args = make([]minic.Expr, len(x.Args))
		for i, a := range x.Args {
			c.Args[i] = cloneExpr(a)
		}
		return &c
	}
	return e
}
