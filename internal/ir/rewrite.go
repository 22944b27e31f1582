package ir

import (
	"fmt"
	"strings"

	"repro/internal/interp"
	"repro/internal/minic"
)

// astInfo indexes one function body for rewriting: a setter per rvalue
// expression position (so a subexpression can be replaced by a literal or
// a temp read) and a setter per replaceable statement slot (so a statement
// can be deleted, substituted, or have a declaration spliced in front of
// it). Pragma statements and their region bodies are protected: the GPU
// executor holds pointers to those exact nodes, so they are never
// replaced, only their contents are optimized.
type astInfo struct {
	exprSet map[minic.Expr]func(minic.Expr)
	stmtSet map[minic.Stmt]func(minic.Stmt)
	// blockPos locates statements directly inside a Block for cheap
	// insert-before splicing.
	blockPos map[minic.Stmt]blockSlot
	// blockOrder gives each Block a stable visit index for deterministic
	// batched insertion.
	blockOrder map[*minic.Block]int
	// protected marks statements that must never be replaced.
	protected map[minic.Stmt]bool
	// regionOf maps every statement to its innermost enclosing pragma
	// region (nil = host code). Hoists and shared temps must stay within
	// one region: the GPU path executes only the region node, so a temp
	// defined outside it would never be computed there.
	regionOf map[minic.Stmt]*minic.PragmaStmt
	// loopDepth counts enclosing While/For loops per statement; copy
	// propagation uses it to ensure a source definition cannot re-execute.
	loopDepth map[minic.Stmt]int
}

type blockSlot struct {
	blk *minic.Block
	idx int
}

func indexAST(fn *minic.FuncDecl) *astInfo {
	a := &astInfo{
		exprSet:    map[minic.Expr]func(minic.Expr){},
		stmtSet:    map[minic.Stmt]func(minic.Stmt){},
		blockPos:   map[minic.Stmt]blockSlot{},
		blockOrder: map[*minic.Block]int{},
		protected:  map[minic.Stmt]bool{},
		regionOf:   map[minic.Stmt]*minic.PragmaStmt{},
		loopDepth:  map[minic.Stmt]int{},
	}
	a.stmt(fn.Body, nil, nil, 0)
	return a
}

func (a *astInfo) stmt(s minic.Stmt, set func(minic.Stmt), region *minic.PragmaStmt, depth int) {
	if s == nil {
		return
	}
	if set != nil {
		a.stmtSet[s] = set
	}
	a.regionOf[s] = region
	a.loopDepth[s] = depth
	switch st := s.(type) {
	case *minic.Block:
		if _, ok := a.blockOrder[st]; !ok {
			a.blockOrder[st] = len(a.blockOrder)
		}
		for i := range st.Stmts {
			i := i
			a.blockPos[st.Stmts[i]] = blockSlot{st, i}
			a.stmt(st.Stmts[i], func(n minic.Stmt) { st.Stmts[i] = n }, region, depth)
		}
	case *minic.If:
		a.expr(st.Cond, func(n minic.Expr) { st.Cond = n })
		a.stmt(st.Then, func(n minic.Stmt) { st.Then = n }, region, depth)
		a.stmt(st.Else, func(n minic.Stmt) { st.Else = n }, region, depth)
	case *minic.While:
		a.expr(st.Cond, func(n minic.Expr) { st.Cond = n })
		a.stmt(st.Body, func(n minic.Stmt) { st.Body = n }, region, depth+1)
	case *minic.For:
		a.stmt(st.Init, func(n minic.Stmt) { st.Init = n }, region, depth)
		if st.Cond != nil {
			a.expr(st.Cond, func(n minic.Expr) { st.Cond = n })
		}
		if st.Post != nil {
			a.expr(st.Post, func(n minic.Expr) { st.Post = n })
		}
		a.stmt(st.Body, func(n minic.Stmt) { st.Body = n }, region, depth+1)
	case *minic.PragmaStmt:
		a.protected[st] = true
		a.protected[st.Body] = true
		if st.IsMapReduce() {
			region = st
		}
		// The body has no setter: spec.Region must keep its identity.
		a.stmt(st.Body, nil, region, depth)
	case *minic.ExprStmt:
		a.expr(st.X, func(n minic.Expr) { st.X = n })
	case *minic.DeclStmt:
		for _, d := range st.Decls {
			d := d
			if d.Init != nil {
				a.expr(d.Init, func(n minic.Expr) { d.Init = n })
			}
		}
	case *minic.Return:
		if st.X != nil {
			a.expr(st.X, func(n minic.Expr) { st.X = n })
		}
	}
}

// expr records setters for every rvalue position inside e. Lvalue
// positions (assignment targets, address-of and inc/dec operands, index
// bases used as locations) get no setter and are never replaced.
func (a *astInfo) expr(e minic.Expr, set func(minic.Expr)) {
	if e == nil {
		return
	}
	if set != nil {
		a.exprSet[e] = set
	}
	switch x := e.(type) {
	case *minic.Unary:
		switch x.Op {
		case "-", "!", "~":
			a.expr(x.X, func(n minic.Expr) { x.X = n })
		case "*":
			a.expr(x.X, func(n minic.Expr) { x.X = n })
		case "&":
			a.lvalue(x.X)
		default: // ++/--
			a.lvalue(x.X)
		}
	case *minic.Postfix:
		a.lvalue(x.X)
	case *minic.Binary:
		a.expr(x.L, func(n minic.Expr) { x.L = n })
		a.expr(x.R, func(n minic.Expr) { x.R = n })
	case *minic.Assign:
		a.lvalue(x.L)
		a.expr(x.R, func(n minic.Expr) { x.R = n })
	case *minic.Cond:
		a.expr(x.C, func(n minic.Expr) { x.C = n })
		a.expr(x.T, func(n minic.Expr) { x.T = n })
		a.expr(x.F, func(n minic.Expr) { x.F = n })
	case *minic.Call:
		if x.Name == "__sizeof_var" {
			return // takes its argument unevaluated
		}
		for i := range x.Args {
			i := i
			a.expr(x.Args[i], func(n minic.Expr) { x.Args[i] = n })
		}
	case *minic.Index:
		// The base is a location-producing expression: walk it for inner
		// rvalues (a nested index's subscript) but give the base itself
		// no setter.
		a.exprNoSet(x.X)
		a.expr(x.Idx, func(n minic.Expr) { x.Idx = n })
	case *minic.Cast:
		a.expr(x.X, func(n minic.Expr) { x.X = n })
	}
}

func (a *astInfo) exprNoSet(e minic.Expr) { a.expr(e, nil) }

// lvalue walks a location expression: only embedded subscripts and
// pointer operands are rvalues.
func (a *astInfo) lvalue(e minic.Expr) {
	switch x := e.(type) {
	case *minic.Index:
		a.exprNoSet(x.X)
		a.expr(x.Idx, func(n minic.Expr) { x.Idx = n })
	case *minic.Unary:
		if x.Op == "*" {
			a.expr(x.X, func(n minic.Expr) { x.X = n })
		}
	}
}

// insertBefore splices decl in front of s: directly when s sits in a
// Block, otherwise by wrapping s in a new two-statement Block. Both paths
// invalidate the astInfo, so callers batch insertions per pass and
// re-index afterwards. Inserts targeting the same block are applied
// back-to-front by the caller so recorded indices stay valid.
func (a *astInfo) insertBefore(s minic.Stmt, decl minic.Stmt) bool {
	if slot, ok := a.blockPos[s]; ok {
		blk := slot.blk
		blk.Stmts = append(blk.Stmts, nil)
		copy(blk.Stmts[slot.idx+1:], blk.Stmts[slot.idx:])
		blk.Stmts[slot.idx] = decl
		return true
	}
	set, ok := a.stmtSet[s]
	if !ok || a.protected[s] {
		return false
	}
	wrap := &minic.Block{Stmts: []minic.Stmt{decl, s}}
	wrap.Pos = stmtPos(s)
	set(wrap)
	return true
}

// stmtPos extracts a statement's source position.
func stmtPos(s minic.Stmt) minic.Pos {
	switch st := s.(type) {
	case *minic.Block:
		return st.Pos
	case *minic.If:
		return st.Pos
	case *minic.While:
		return st.Pos
	case *minic.For:
		return st.Pos
	case *minic.Return:
		return st.Pos
	case *minic.Break:
		return st.Pos
	case *minic.Continue:
		return st.Pos
	case *minic.ExprStmt:
		return st.Pos
	case *minic.DeclStmt:
		return st.Pos
	case *minic.EmptyStmt:
		return st.Pos
	case *minic.PragmaStmt:
		return st.Pos
	}
	return minic.Pos{}
}

// exprPos extracts an expression's source position.
func exprPos(e minic.Expr) minic.Pos {
	switch x := e.(type) {
	case *minic.IntLit:
		return x.Pos
	case *minic.FloatLit:
		return x.Pos
	case *minic.CharLit:
		return x.Pos
	case *minic.StrLit:
		return x.Pos
	case *minic.Ident:
		return x.Pos
	case *minic.Unary:
		return x.Pos
	case *minic.Postfix:
		return x.Pos
	case *minic.Binary:
		return x.Pos
	case *minic.Assign:
		return x.Pos
	case *minic.Cond:
		return x.Pos
	case *minic.Call:
		return x.Pos
	case *minic.Index:
		return x.Pos
	case *minic.Cast:
		return x.Pos
	case *minic.SizeofType:
		return x.Pos
	}
	return minic.Pos{}
}

// literalFor builds the AST literal for a constant, preserving the
// original expression's static type and position.
func literalFor(c interp.Value, orig minic.Expr) minic.Expr {
	if c.Kind == interp.ValFloat {
		l := &minic.FloatLit{Value: c.F()}
		l.Pos = exprPos(orig)
		l.SetType(orig.Type())
		return l
	}
	l := &minic.IntLit{Value: c.I}
	l.Pos = exprPos(orig)
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
