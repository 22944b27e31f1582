package analysis

import (
	"strings"

	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/minic"
)

// Analyze runs every source-level pass over a parsed-and-checked program:
// the directive verifier (HD1xx), dataflow (HD2xx), parallel legality
// (HD3xx), and IO purity (HD5xx). Kernel-level passes (HD4xx) run
// separately via AnalyzeKernel because they need the translator's variable
// placement plan. The program is never mutated.
func Analyze(prog *minic.Program) []Diagnostic {
	a := &analyzer{prog: prog, file: prog.File}
	regions := a.mapreduceRegions()
	a.oobOwned = a.hd403Owned(regions)
	for _, r := range regions {
		a.directivePass(r)
	}
	for _, fn := range prog.Funcs {
		fx := ir.AnalyzeFunc(fn) // one lowering feeds HD2xx and HD6xx
		a.dataflowPass(fx.F)
		a.optPass(fx)
	}
	for _, r := range regions {
		a.parallelPass(r)
		a.ioPurityPass(r)
	}
	Sort(a.diags)
	return a.diags
}

type analyzer struct {
	prog  *minic.Program
	file  string
	diags []Diagnostic
	// oobOwned marks subscripts the kernel-side HD403 pass reports, so the
	// source-level HD605 pass does not double-report them.
	oobOwned map[*minic.Index]bool
}

func (a *analyzer) report(code string, pos minic.Pos, msg, fix string) {
	a.diags = append(a.diags, Diagnostic{
		Code:     code,
		Severity: catalogSeverity(code),
		File:     a.file,
		Pos:      pos,
		Message:  msg,
		Fix:      fix,
	})
}

// ---- Region discovery ----

// regionInfo is one `#pragma mapreduce` region with its clause list
// re-scanned (duplicates preserved, unlike the translator's Directive) and
// names resolved against visible symbols.
type regionInfo struct {
	pragma *minic.PragmaStmt
	fn     *minic.FuncDecl

	clauses  []minic.Clause
	combiner bool
	// kindClauses counts mapper/combiner markers (pairing check).
	kindClauses int

	key, value     string
	keyIn, valueIn string
	keyLen, valLen int

	firstPrivate []string
	sharedRO     []string
	texture      []string

	syms map[string]*minic.Symbol
}

func (r *regionInfo) kindName() string {
	if r.combiner {
		return "combiner"
	}
	return "mapper"
}

func (r *regionInfo) inFirstPrivate(name string) bool { return contains(r.firstPrivate, name) }

func (r *regionInfo) inReadOnlyClause(name string) bool {
	return contains(r.sharedRO, name) || contains(r.texture, name)
}

func contains(list []string, name string) bool {
	for _, n := range list {
		if n == name {
			return true
		}
	}
	return false
}

func (a *analyzer) mapreduceRegions() []*regionInfo {
	var out []*regionInfo
	for _, fn := range a.prog.Funcs {
		fn := fn
		minic.WalkStmts(fn.Body, func(s minic.Stmt) {
			p, ok := s.(*minic.PragmaStmt)
			if !ok || !p.IsMapReduce() {
				return
			}
			r := &regionInfo{pragma: p, fn: fn, syms: a.visibleSymbols(fn)}
			r.clauses = minic.ScanClauses(strings.TrimPrefix(strings.TrimSpace(p.Text), "mapreduce"))
			for _, cl := range r.clauses {
				switch cl.Name {
				case "mapper":
					r.kindClauses++
				case "combiner":
					r.combiner = true
					r.kindClauses++
				case "key":
					r.key = one(cl)
				case "value":
					r.value = one(cl)
				case "keyin":
					r.keyIn = one(cl)
				case "valuein":
					r.valueIn = one(cl)
				case "keylength":
					r.keyLen = oneInt(cl)
				case "vallength":
					r.valLen = oneInt(cl)
				case "firstprivate":
					r.firstPrivate = append(r.firstPrivate, cl.Args...)
				case "sharedRO", "sharedro":
					r.sharedRO = append(r.sharedRO, cl.Args...)
				case "texture":
					r.texture = append(r.texture, cl.Args...)
				}
			}
			out = append(out, r)
		})
	}
	return out
}

// visibleSymbols maps names to symbols visible inside fn: file-scope
// globals, parameters, and every nested declaration (mirrors the
// translator's resolution rules).
func (a *analyzer) visibleSymbols(fn *minic.FuncDecl) map[string]*minic.Symbol {
	out := map[string]*minic.Symbol{}
	for _, g := range a.prog.Globals {
		for _, d := range g.Decls {
			out[d.Name] = d.Sym
		}
	}
	for _, p := range fn.Params {
		out[p.Name] = p.Sym
	}
	minic.WalkStmts(fn.Body, func(s minic.Stmt) {
		if ds, ok := s.(*minic.DeclStmt); ok {
			for _, d := range ds.Decls {
				out[d.Name] = d.Sym
			}
		}
	})
	return out
}

// ---- Clause values ----

// one returns a clause's sole argument, or "" when it has none or several.
func one(c minic.Clause) string {
	if len(c.Args) == 1 {
		return c.Args[0]
	}
	return ""
}

// oneInt returns a clause's sole argument as a non-negative integer, or 0
// when it is not one.
func oneInt(c minic.Clause) int {
	s := one(c)
	n := 0
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return 0
		}
		n = n*10 + int(s[i]-'0')
	}
	return n
}

// ---- Access events ----

// evKind classifies one variable access, in evaluation order.
type evKind int

const (
	// evRead loads the variable's value (or the pointer value for
	// pointer-typed variables passed by value).
	evRead evKind = iota
	// evWrite stores a new value into the variable (assignment, ++/--).
	evWrite
	// evElemWrite stores through a subscript: the element changes but the
	// variable binding itself does not (a use, not a def, for dataflow;
	// a write for parallel-legality ordering).
	evElemWrite
	// evAddr passes the variable's address (or a decayed array) to a
	// callee that may both read and write it. Conservatively use+def.
	evAddr
	// evDeclUninit marks a scalar declaration without initializer.
	evDeclUninit
)

// event is one ordered access to a symbol.
type event struct {
	sym  *minic.Symbol
	kind evKind
	pos  minic.Pos
	// plainStore marks a statement-level `x = rhs` whose value is not
	// consumed: the only dead-store candidates.
	plainStore bool
	// constRHS marks a plainStore whose RHS is a literal constant
	// (defensive initialization; dead ones downgrade to info).
	constRHS bool
	// consumed marks an assignment nested inside a larger expression
	// (its value is used, so the store is live by construction).
	consumed bool
}

// nodeEvents returns the ordered access events of one statement-level node
// of an ir.Block (a Stmt or a condition/post Expr).
func nodeEvents(n minic.Node) []event {
	var out []event
	switch x := n.(type) {
	case *minic.DeclStmt:
		for _, d := range x.Decls {
			if d.Init != nil {
				exprEvents(d.Init, false, &out)
				out = append(out, event{
					sym: d.Sym, kind: evWrite, pos: x.Pos,
					plainStore: true, constRHS: isConstExpr(d.Init),
				})
			} else if d.Type != nil && d.Type.Kind != minic.TypeArray {
				out = append(out, event{sym: d.Sym, kind: evDeclUninit, pos: x.Pos})
			}
		}
	case *minic.ExprStmt:
		stmtExprEvents(x.X, &out)
	case *minic.Return:
		if x.X != nil {
			exprEvents(x.X, false, &out)
		}
	case minic.Expr:
		exprEvents(x, false, &out)
	}
	return out
}

// stmtExprEvents handles a statement-level expression: a top-level plain
// assignment is a dead-store candidate because its value is discarded.
func stmtExprEvents(e minic.Expr, out *[]event) {
	if as, ok := e.(*minic.Assign); ok {
		exprEvents(as.R, false, out)
		assignTargetEvents(as, false, out)
		return
	}
	exprEvents(e, false, out)
}

// exprEvents appends e's access events in evaluation order. consumed marks
// whether the expression's value feeds an enclosing computation (true for
// everything reached from here; the distinction matters only for Assign).
func exprEvents(e minic.Expr, consumed bool, out *[]event) {
	_ = consumed
	switch x := e.(type) {
	case nil:
	case *minic.Ident:
		if x.Sym != nil && x.Sym.Kind != minic.SymBuiltin {
			*out = append(*out, event{sym: x.Sym, kind: evRead, pos: x.Pos})
		}
	case *minic.IntLit, *minic.FloatLit, *minic.CharLit, *minic.StrLit, *minic.SizeofType:
	case *minic.Unary:
		switch x.Op {
		case "&":
			addrEvents(x.X, out)
		case "++", "--":
			incDecEvents(x.X, out)
		default:
			exprEvents(x.X, true, out)
		}
	case *minic.Postfix:
		incDecEvents(x.X, out)
	case *minic.Binary:
		exprEvents(x.L, true, out)
		exprEvents(x.R, true, out)
	case *minic.Assign:
		exprEvents(x.R, true, out)
		assignTargetEvents(x, true, out)
	case *minic.Cond:
		exprEvents(x.C, true, out)
		exprEvents(x.T, true, out)
		exprEvents(x.F, true, out)
	case *minic.Call:
		callEvents(x, out)
	case *minic.Index:
		exprEvents(x.X, true, out)
		exprEvents(x.Idx, true, out)
	case *minic.Cast:
		exprEvents(x.X, true, out)
	}
}

// assignTargetEvents appends the LHS events of an assignment. consumed
// marks nested assignments whose value feeds an enclosing expression.
func assignTargetEvents(as *minic.Assign, consumed bool, out *[]event) {
	switch l := as.L.(type) {
	case *minic.Ident:
		if l.Sym == nil || l.Sym.Kind == minic.SymBuiltin {
			return
		}
		if as.Op != "=" {
			// Compound assignment reads the old value first.
			*out = append(*out, event{sym: l.Sym, kind: evRead, pos: l.Pos})
		}
		*out = append(*out, event{
			sym: l.Sym, kind: evWrite, pos: as.Pos,
			plainStore: as.Op == "=" && !consumed,
			constRHS:   as.Op == "=" && isConstExpr(as.R),
			consumed:   consumed,
		})
	case *minic.Index:
		// Storing through a subscript reads the base binding and the index
		// and writes an element.
		exprEvents(l.Idx, true, out)
		if base := baseIdent(l.X); base != nil && base.Sym != nil {
			if as.Op != "=" {
				*out = append(*out, event{sym: base.Sym, kind: evRead, pos: l.Pos})
			}
			*out = append(*out, event{sym: base.Sym, kind: evElemWrite, pos: as.Pos})
		} else {
			exprEvents(l.X, true, out)
		}
	case *minic.Unary:
		// *p = v: reads the pointer, writes the pointee.
		if l.Op == "*" {
			exprEvents(l.X, true, out)
			if base := baseIdent(l.X); base != nil && base.Sym != nil {
				*out = append(*out, event{sym: base.Sym, kind: evElemWrite, pos: as.Pos})
			}
		} else {
			exprEvents(l, true, out)
		}
	default:
		exprEvents(as.L, true, out)
	}
}

func incDecEvents(x minic.Expr, out *[]event) {
	if id, ok := x.(*minic.Ident); ok && id.Sym != nil && id.Sym.Kind != minic.SymBuiltin {
		*out = append(*out, event{sym: id.Sym, kind: evRead, pos: id.Pos})
		*out = append(*out, event{sym: id.Sym, kind: evWrite, pos: id.Pos})
		return
	}
	// a[i]++ and *p++ read the base and write an element.
	exprEvents(x, true, out)
	if base := baseIdent(x); base != nil && base.Sym != nil {
		*out = append(*out, event{sym: base.Sym, kind: evElemWrite, pos: base.Pos})
	}
}

func addrEvents(x minic.Expr, out *[]event) {
	switch t := x.(type) {
	case *minic.Ident:
		if t.Sym != nil && t.Sym.Kind != minic.SymBuiltin {
			*out = append(*out, event{sym: t.Sym, kind: evAddr, pos: t.Pos})
		}
	case *minic.Index:
		exprEvents(t.Idx, true, out)
		if base := baseIdent(t.X); base != nil && base.Sym != nil {
			*out = append(*out, event{sym: base.Sym, kind: evAddr, pos: base.Pos})
		} else {
			exprEvents(t.X, true, out)
		}
	default:
		exprEvents(x, true, out)
	}
}

func baseIdent(e minic.Expr) *minic.Ident {
	switch x := e.(type) {
	case *minic.Ident:
		return x
	case *minic.Index:
		return baseIdent(x.X)
	case *minic.Cast:
		return baseIdent(x.X)
	}
	return nil
}

// argDir describes how a callee treats one argument.
type argDir int

const (
	dirRead argDir = iota
	dirOut         // callee may write through the pointer/array
)

// builtinArgDirs records argument directions for builtins whose pointer
// arguments are read-only; everything listed as dirOut (and every call to
// an unknown or user-defined function) conservatively counts as a write
// through pointer/array arguments.
var builtinArgDirs = map[string][]argDir{
	"strcmp":    {dirRead, dirRead},
	"strncmp":   {dirRead, dirRead, dirRead},
	"strcpy":    {dirOut, dirRead},
	"strncpy":   {dirOut, dirRead, dirRead},
	"strlen":    {dirRead},
	"strstr":    {dirRead, dirRead},
	"strcat":    {dirOut, dirRead},
	"memset":    {dirOut, dirRead, dirRead},
	"memcpy":    {dirOut, dirRead, dirRead},
	"atoi":      {dirRead},
	"atof":      {dirRead},
	"free":      {dirRead},
	"printf":    {dirRead}, // variadic: extra args default to dirRead
	"strcmpGPU": {dirRead, dirRead},
	"strcpyGPU": {dirOut, dirRead},
	"strlenGPU": {dirRead},
	"emitKV":    {dirRead, dirRead},
	"storeKV":   {dirRead, dirRead},
	"getRecord": {dirOut},
	"getKV":     {dirOut, dirOut},
}

// readOnlyVariadic marks builtins whose variadic tail is read-only.
var readOnlyVariadic = map[string]bool{"printf": true}

func callArgDir(call *minic.Call, i int) argDir {
	if dirs, ok := builtinArgDirs[call.Name]; ok {
		if i < len(dirs) {
			return dirs[i]
		}
		if readOnlyVariadic[call.Name] {
			return dirRead
		}
	}
	if call.Name == "scanf" {
		// scanf writes only through explicit &args, which produce evAddr
		// on their own; the format string and bare args read.
		return dirRead
	}
	return dirOut
}

func callEvents(call *minic.Call, out *[]event) {
	for i, arg := range call.Args {
		dir := callArgDir(call, i)
		id, isIdent := arg.(*minic.Ident)
		pointerLike := isIdent && id.Sym != nil && id.Sym.Type != nil && id.Sym.Type.IsPointerLike()
		if dir == dirOut && pointerLike {
			if id.Sym.Kind != minic.SymBuiltin {
				*out = append(*out, event{sym: id.Sym, kind: evAddr, pos: id.Pos})
			}
			continue
		}
		exprEvents(arg, true, out)
	}
}

// isConstExpr reports whether e is a compile-time literal constant.
func isConstExpr(e minic.Expr) bool {
	switch x := e.(type) {
	case *minic.IntLit, *minic.FloatLit, *minic.CharLit, *minic.StrLit, *minic.SizeofType:
		return true
	case *minic.Unary:
		return (x.Op == "-" || x.Op == "~" || x.Op == "!") && isConstExpr(x.X)
	case *minic.Cast:
		return isConstExpr(x.X)
	}
	return false
}

// constIntValue folds e to an integer constant when statically possible.
func constIntValue(e minic.Expr) (int64, bool) {
	v, ok := evalConst(e)
	if !ok || v.Kind != interp.ValInt {
		return 0, false
	}
	return v.I, true
}

// evalConst folds a literal expression with the interpreter's own
// operators and scalar conversions; an operation that would trap does not
// fold.
func evalConst(e minic.Expr) (interp.Value, bool) {
	var v interp.Value
	var err error
	switch x := e.(type) {
	case *minic.IntLit:
		return interp.IntVal(x.Value), true
	case *minic.CharLit:
		return interp.IntVal(int64(x.Value)), true
	case *minic.FloatLit:
		return interp.FloatVal(x.Value), true
	case *minic.Unary:
		a, ok := evalConst(x.X)
		if !ok {
			return v, false
		}
		v, err = interp.ApplyUnary(x.Op, a)
	case *minic.Binary:
		l, ok1 := evalConst(x.L)
		r, ok2 := evalConst(x.R)
		if !ok1 || !ok2 {
			return v, false
		}
		v, err = interp.ApplyBinary(x.Op, l, r)
	case *minic.Cast:
		a, ok := evalConst(x.X)
		if !ok || !x.To.IsNumeric() {
			return v, false
		}
		v = interp.ConvertFor(x.To, a)
	default:
		return v, false
	}
	return v, err == nil
}
