package minic

// The traversal below is the one place that knows which fields of which
// node are children. Its visit order is part of the contract: the
// translator's first-access analysis (firstprivate vs private) and the
// order of diagnostics observe it.

// WalkStmts calls visit for s and then for every statement nested in it,
// pre-order: a Block's statements in order, an If's Then before its Else,
// a For's Init before its Body, the Body of a While or PragmaStmt. A
// statement's children are read after visit returns, so visit may rewrite
// them.
func WalkStmts(s Stmt, visit func(Stmt)) {
	if s == nil {
		return
	}
	visit(s)
	switch st := s.(type) {
	case *Block:
		for _, inner := range st.Stmts {
			WalkStmts(inner, visit)
		}
	case *If:
		WalkStmts(st.Then, visit)
		WalkStmts(st.Else, visit)
	case *While:
		WalkStmts(st.Body, visit)
	case *For:
		WalkStmts(st.Init, visit)
		WalkStmts(st.Body, visit)
	case *PragmaStmt:
		WalkStmts(st.Body, visit)
	}
}

// StmtExprs calls visit for each non-nil expression s holds directly: an
// ExprStmt's X, each declarator's Init, an If's or While's Cond, a For's
// Cond then Post, a Return's X. Expressions of nested statements (a For's
// Init included) are not visited.
func StmtExprs(s Stmt, visit func(Expr)) {
	switch st := s.(type) {
	case *ExprStmt:
		visitNonNil(st.X, visit)
	case *DeclStmt:
		for _, d := range st.Decls {
			visitNonNil(d.Init, visit)
		}
	case *If:
		visitNonNil(st.Cond, visit)
	case *While:
		visitNonNil(st.Cond, visit)
	case *For:
		visitNonNil(st.Cond, visit)
		visitNonNil(st.Post, visit)
	case *Return:
		visitNonNil(st.X, visit)
	}
}

func visitNonNil(e Expr, visit func(Expr)) {
	if e != nil {
		visit(e)
	}
}

// Inspect calls visit for e and, if visit returns true, recursively for
// each of e's non-nil operands, left to right, like go/ast.Inspect:
// returning false skips the subtree below the node just visited. An
// expression's operands are read after visit returns, so visit may
// rewrite them.
func Inspect(e Expr, visit func(Expr) bool) {
	if e == nil || !visit(e) {
		return
	}
	switch x := e.(type) {
	case *Unary:
		Inspect(x.X, visit)
	case *Postfix:
		Inspect(x.X, visit)
	case *Binary:
		Inspect(x.L, visit)
		Inspect(x.R, visit)
	case *Assign:
		Inspect(x.L, visit)
		Inspect(x.R, visit)
	case *Cond:
		Inspect(x.C, visit)
		Inspect(x.T, visit)
		Inspect(x.F, visit)
	case *Call:
		for _, a := range x.Args {
			Inspect(a, visit)
		}
	case *Index:
		Inspect(x.X, visit)
		Inspect(x.Idx, visit)
	case *Cast:
		Inspect(x.X, visit)
	}
}

// WalkExprs inspects every expression in the statement tree s: statements
// in WalkStmts order, each statement's own expressions in StmtExprs order,
// and each expression tree as Inspect walks it.
func WalkExprs(s Stmt, visit func(Expr) bool) {
	WalkStmts(s, func(st Stmt) {
		StmtExprs(st, func(e Expr) { Inspect(e, visit) })
	})
}
