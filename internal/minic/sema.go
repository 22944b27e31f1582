package minic

import (
	"fmt"
)

// BuiltinSig describes a runtime-provided function: its result type and
// whether sema should skip arity checking (variadic, like printf).
type BuiltinSig struct {
	Ret      *Type
	Arity    int
	Variadic bool
}

// Builtins is the C standard library surface available to MiniC programs,
// plus the GPU runtime intrinsics that the HeteroDoop translator inserts
// (mapSetup, getRecord, emitKV, ...). Implementations live in package
// interp; the GPU flavours are bound by package gpurt.
var Builtins = map[string]BuiltinSig{
	// stdio
	"getline": {Ret: IntType, Arity: 3},
	"printf":  {Ret: IntType, Arity: 1, Variadic: true},
	"scanf":   {Ret: IntType, Arity: 1, Variadic: true},
	"getchar": {Ret: IntType, Arity: 0},
	"putchar": {Ret: IntType, Arity: 1},

	// string.h
	"strcmp":  {Ret: IntType, Arity: 2},
	"strncmp": {Ret: IntType, Arity: 3},
	"strcpy":  {Ret: PointerTo(CharType), Arity: 2},
	"strncpy": {Ret: PointerTo(CharType), Arity: 3},
	"strlen":  {Ret: IntType, Arity: 1},
	"strstr":  {Ret: PointerTo(CharType), Arity: 2},
	"strcat":  {Ret: PointerTo(CharType), Arity: 2},
	"memset":  {Ret: PointerTo(VoidType), Arity: 3},
	"memcpy":  {Ret: PointerTo(VoidType), Arity: 3},

	// stdlib.h
	"atoi":   {Ret: IntType, Arity: 1},
	"atof":   {Ret: DoubleType, Arity: 1},
	"malloc": {Ret: PointerTo(VoidType), Arity: 1},
	"calloc": {Ret: PointerTo(VoidType), Arity: 2},
	"free":   {Ret: VoidType, Arity: 1},
	"abs":    {Ret: IntType, Arity: 1},
	"exit":   {Ret: VoidType, Arity: 1},

	// ctype.h
	"isdigit": {Ret: IntType, Arity: 1},
	"isalpha": {Ret: IntType, Arity: 1},
	"isalnum": {Ret: IntType, Arity: 1},
	"isspace": {Ret: IntType, Arity: 1},
	"tolower": {Ret: IntType, Arity: 1},
	"toupper": {Ret: IntType, Arity: 1},

	// math.h
	"sqrt":  {Ret: DoubleType, Arity: 1},
	"fabs":  {Ret: DoubleType, Arity: 1},
	"exp":   {Ret: DoubleType, Arity: 1},
	"log":   {Ret: DoubleType, Arity: 1},
	"log2":  {Ret: DoubleType, Arity: 1},
	"pow":   {Ret: DoubleType, Arity: 2},
	"floor": {Ret: DoubleType, Arity: 1},
	"ceil":  {Ret: DoubleType, Arity: 1},
	"fmin":  {Ret: DoubleType, Arity: 2},
	"fmax":  {Ret: DoubleType, Arity: 2},
	"erf":   {Ret: DoubleType, Arity: 1},
	"sin":   {Ret: DoubleType, Arity: 1},
	"cos":   {Ret: DoubleType, Arity: 1},

	// internal helper emitted by the parser for sizeof(expr)
	"__sizeof_var": {Ret: LongType, Arity: 1},

	// HeteroDoop GPU runtime intrinsics (inserted by the translator; see
	// paper Listings 3 and 4). Arity checking is skipped because the
	// translator controls the call sites.
	"mapSetup":     {Ret: VoidType, Variadic: true},
	"getRecord":    {Ret: IntType, Variadic: true},
	"emitKV":       {Ret: VoidType, Variadic: true},
	"mapFinish":    {Ret: VoidType, Variadic: true},
	"combineSetup": {Ret: VoidType, Variadic: true},
	"getKV":        {Ret: IntType, Variadic: true},
	"storeKV":      {Ret: VoidType, Variadic: true},
	"strcmpGPU":    {Ret: IntType, Arity: 2},
	"strcpyGPU":    {Ret: PointerTo(CharType), Arity: 2},
	"strlenGPU":    {Ret: IntType, Arity: 1},
}

// builtinIdents are predeclared value identifiers.
var builtinIdents = map[string]*Type{
	"stdin":  PointerTo(VoidType),
	"stdout": PointerTo(VoidType),
	"stderr": PointerTo(VoidType),
}

type scope struct {
	parent *scope
	syms   map[string]*Symbol
}

func (s *scope) lookup(name string) *Symbol {
	for sc := s; sc != nil; sc = sc.parent {
		if sym, ok := sc.syms[name]; ok {
			return sym
		}
	}
	return nil
}

func (s *scope) define(sym *Symbol) error {
	if _, ok := s.syms[sym.Name]; ok {
		return fmt.Errorf("redeclaration of %q", sym.Name)
	}
	s.syms[sym.Name] = sym
	return nil
}

type checker struct {
	prog   *Program
	funcs  map[string]*FuncDecl
	errors []error
	curFn  *FuncDecl
	loops  int
}

// Check runs semantic analysis over prog: it resolves identifiers, types
// every expression, and validates calls and lvalues. It returns the first
// error encountered (with up to a few collected), or nil.
func Check(prog *Program) error {
	c := &checker{prog: prog, funcs: map[string]*FuncDecl{}}
	for _, f := range prog.Funcs {
		if _, dup := c.funcs[f.Name]; dup {
			return fmt.Errorf("%s: duplicate function %q", ErrPrefix(prog.File, f.Pos), f.Name)
		}
		if _, isBuiltin := Builtins[f.Name]; isBuiltin {
			return fmt.Errorf("%s: function %q shadows a builtin", ErrPrefix(prog.File, f.Pos), f.Name)
		}
		c.funcs[f.Name] = f
	}
	global := &scope{syms: map[string]*Symbol{}}
	//detlint:ignore map-iteration: each unique name is defined into a fresh scope map, which visiting order cannot change
	for name, t := range builtinIdents {
		_ = global.define(&Symbol{Name: name, Kind: SymBuiltin, Type: t, Global: true})
	}
	for _, g := range prog.Globals {
		c.checkVarDecl(global, g, true)
	}
	for _, f := range prog.Funcs {
		c.checkFunc(global, f)
	}
	if len(c.errors) > 0 {
		return c.errors[0]
	}
	return nil
}

func (c *checker) errf(pos Pos, format string, args ...any) {
	c.errors = append(c.errors, fmt.Errorf("%s: %s", ErrPrefix(c.prog.File, pos), fmt.Sprintf(format, args...)))
}

func (c *checker) checkFunc(global *scope, f *FuncDecl) {
	c.curFn = f
	sc := &scope{parent: global, syms: map[string]*Symbol{}}
	for _, p := range f.Params {
		sym := &Symbol{Name: p.Name, Kind: SymParam, Type: p.Type}
		p.Sym = sym
		if err := sc.define(sym); err != nil {
			c.errf(f.Pos, "parameter %v", err)
		}
	}
	c.checkBlock(sc, f.Body)
	c.curFn = nil
}

func (c *checker) checkBlock(parent *scope, b *Block) {
	sc := &scope{parent: parent, syms: map[string]*Symbol{}}
	for _, s := range b.Stmts {
		c.checkStmt(sc, s)
	}
}

func (c *checker) checkStmt(sc *scope, s Stmt) {
	switch st := s.(type) {
	case *DeclStmt:
		c.checkVarDecl(sc, st, false)
	case *ExprStmt:
		c.checkExpr(sc, st.X)
	case *EmptyStmt:
	case *Block:
		c.checkBlock(sc, st)
	case *If:
		c.checkExpr(sc, st.Cond)
		c.checkStmt(sc, st.Then)
		if st.Else != nil {
			c.checkStmt(sc, st.Else)
		}
	case *While:
		c.checkExpr(sc, st.Cond)
		c.loops++
		c.checkStmt(sc, st.Body)
		c.loops--
	case *For:
		inner := &scope{parent: sc, syms: map[string]*Symbol{}}
		if st.Init != nil {
			c.checkStmt(inner, st.Init)
		}
		if st.Cond != nil {
			c.checkExpr(inner, st.Cond)
		}
		if st.Post != nil {
			c.checkExpr(inner, st.Post)
		}
		c.loops++
		c.checkStmt(inner, st.Body)
		c.loops--
	case *Return:
		if st.X != nil {
			c.checkExpr(sc, st.X)
		}
	case *Break:
		if c.loops == 0 {
			c.errf(s.nodePos(), "break statement outside loop")
		}
	case *Continue:
		if c.loops == 0 {
			c.errf(s.nodePos(), "continue statement outside loop")
		}
	case *PragmaStmt:
		c.checkStmt(sc, st.Body)
	default:
		c.errf(s.nodePos(), "unhandled statement %T", s)
	}
}

func (c *checker) checkVarDecl(sc *scope, d *DeclStmt, global bool) {
	for _, decl := range d.Decls {
		if decl.Init != nil {
			c.checkExpr(sc, decl.Init)
			for t := decl.Type; t.Kind == TypeArray; t = t.Elem {
				if t.Len == 0 {
					// An initializer fills an array's first cell, and
					// this one has none.
					c.errf(d.Pos, "array %q of length 0 has an initializer", decl.Name)
					break
				}
			}
		}
		sym := &Symbol{Name: decl.Name, Kind: SymVar, Type: decl.Type, Global: global}
		decl.Sym = sym
		if err := sc.define(sym); err != nil {
			c.errf(d.Pos, "%v", err)
		}
	}
}

func (c *checker) checkExpr(sc *scope, e Expr) *Type {
	switch x := e.(type) {
	case *IntLit:
		x.SetType(IntType)
	case *FloatLit:
		x.SetType(DoubleType)
	case *CharLit:
		x.SetType(CharType)
	case *StrLit:
		x.SetType(PointerTo(CharType))
	case *Ident:
		sym := sc.lookup(x.Name)
		if sym == nil {
			c.errf(x.Pos, "undeclared identifier %q", x.Name)
			x.SetType(IntType)
			break
		}
		x.Sym = sym
		x.SetType(sym.Type)
	case *Unary:
		t := c.checkExpr(sc, x.X)
		switch x.Op {
		case "&":
			if !isLvalue(x.X) {
				c.errf(x.Pos, "cannot take address of non-lvalue")
			}
			x.SetType(PointerTo(t))
		case "*":
			if t != nil && t.IsPointerLike() {
				x.SetType(t.ElemType())
			} else {
				c.errf(x.Pos, "dereference of non-pointer type %v", t)
				x.SetType(IntType)
			}
		case "!", "~":
			x.SetType(IntType)
		case "-":
			x.SetType(t)
		case "++", "--":
			if !isLvalue(x.X) {
				c.errf(x.Pos, "%s of non-lvalue", x.Op)
			}
			x.SetType(t)
		}
	case *Postfix:
		t := c.checkExpr(sc, x.X)
		if !isLvalue(x.X) {
			c.errf(x.Pos, "%s of non-lvalue", x.Op)
		}
		x.SetType(t)
	case *Binary:
		lt := c.checkExpr(sc, x.L)
		rt := c.checkExpr(sc, x.R)
		switch x.Op {
		case "==", "!=", "<", ">", "<=", ">=", "&&", "||":
			x.SetType(IntType)
		case "+", "-":
			// Pointer arithmetic keeps the pointer type.
			switch {
			case lt != nil && lt.IsPointerLike():
				x.SetType(PointerTo(lt.ElemType()))
			case rt != nil && rt.IsPointerLike():
				x.SetType(PointerTo(rt.ElemType()))
			default:
				x.SetType(promote(lt, rt))
			}
		default:
			x.SetType(promote(lt, rt))
		}
	case *Assign:
		lt := c.checkExpr(sc, x.L)
		c.checkExpr(sc, x.R)
		if !isLvalue(x.L) {
			c.errf(x.Pos, "assignment to non-lvalue")
		}
		x.SetType(lt)
	case *Cond:
		c.checkExpr(sc, x.C)
		tt := c.checkExpr(sc, x.T)
		ft := c.checkExpr(sc, x.F)
		x.SetType(promote(tt, ft))
	case *Index:
		bt := c.checkExpr(sc, x.X)
		c.checkExpr(sc, x.Idx)
		if bt != nil && bt.IsPointerLike() {
			x.SetType(bt.ElemType())
		} else {
			c.errf(x.Pos, "indexing non-array type %v", bt)
			x.SetType(IntType)
		}
	case *Cast:
		c.checkExpr(sc, x.X)
		x.SetType(x.To)
	case *SizeofType:
		x.SetType(LongType)
	case *Call:
		for _, a := range x.Args {
			c.checkExpr(sc, a)
		}
		if sig, ok := Builtins[x.Name]; ok {
			x.Builtin = true
			if !sig.Variadic && len(x.Args) != sig.Arity {
				c.errf(x.Pos, "builtin %q called with %d args, want %d", x.Name, len(x.Args), sig.Arity)
			}
			x.SetType(sig.Ret)
			break
		}
		fn, ok := c.funcs[x.Name]
		if !ok {
			c.errf(x.Pos, "call of undefined function %q", x.Name)
			x.SetType(IntType)
			break
		}
		if len(x.Args) != len(fn.Params) {
			c.errf(x.Pos, "function %q called with %d args, want %d", x.Name, len(x.Args), len(fn.Params))
		}
		x.SetType(fn.Ret)
	default:
		c.errf(e.nodePos(), "unhandled expression %T", e)
		return IntType
	}
	return e.Type()
}

func isLvalue(e Expr) bool {
	switch x := e.(type) {
	case *Ident:
		return true
	case *Index:
		return true
	case *Unary:
		return x.Op == "*"
	}
	return false
}

// promote implements the usual arithmetic conversions, loosely.
func promote(a, b *Type) *Type {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	rank := func(t *Type) int {
		switch t.Kind {
		case TypeDouble:
			return 5
		case TypeFloat:
			return 4
		case TypeLong:
			return 3
		case TypeInt:
			return 2
		case TypeChar:
			return 1
		default:
			return 0
		}
	}
	if rank(a) >= rank(b) {
		return a
	}
	return b
}

// ParseAndCheck parses and semantically checks src in one step.
func ParseAndCheck(src string) (*Program, error) {
	return ParseAndCheckFile("", src)
}

// ParseAndCheckFile is ParseAndCheck with a file name threaded into every
// diagnostic, so errors print file:line:col.
func ParseAndCheckFile(file, src string) (*Program, error) {
	prog, err := ParseFile(file, src)
	if err != nil {
		return nil, err
	}
	if err := Check(prog); err != nil {
		return nil, err
	}
	return prog, nil
}

// FindPragmas walks the program and returns every PragmaStmt, in source
// order.
func FindPragmas(prog *Program) []*PragmaStmt {
	var out []*PragmaStmt
	for _, f := range prog.Funcs {
		WalkStmts(f.Body, func(s Stmt) {
			if p, ok := s.(*PragmaStmt); ok {
				out = append(out, p)
			}
		})
	}
	return out
}
