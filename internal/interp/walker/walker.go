// Package walker is MiniC's reference evaluator: it executes a checked
// AST directly, one node at a time, against an interp.Machine, through
// the same hooks the bytecode VM uses, and keeps the globals' objects
// itself, as the VM does. Every MiniC stage runs on the VM (package
// bytecode); the walker is the oracle the VM's parity tests, FuzzVMParity
// and the 220-seed stage check compare it against, so only _test.go files
// import this package.
//
// The walker defines the abstract cost the VM must charge: one step and
// one op per executed statement, one op on entering each expression
// (before its operands), the Load or Store of every variable access, and
// a call's overhead ops. File-scope initializers charge no statement step
// or op, only their expressions and stores.
package walker

import (
	"errors"
	"fmt"

	"repro/internal/interp"
	"repro/internal/minic"
)

// Walker evaluates one machine's program. Like the machine, it is not
// safe for concurrent use.
type Walker struct {
	m    *interp.Machine
	cost interp.CostSink
	// inited records that the initializers ran, defining globals.
	inited  bool
	globals map[*minic.Symbol]*interp.Object
}

// New returns a walker over m.
func New(m *interp.Machine) *Walker {
	return &Walker{m: m, cost: m.Cost(), globals: map[*minic.Symbol]*interp.Object{}}
}

// Run runs m's program on a new walker: see Walker.Run.
func Run(m *interp.Machine) (int, error) { return New(m).Run() }

type ctrlKind uint8

const (
	ctrlNone ctrlKind = iota
	ctrlBreak
	ctrlContinue
	ctrlReturn
)

type ctrl struct {
	kind ctrlKind
	val  interp.Value
}

// frame is one function invocation's storage, keyed by resolved symbol.
// The nil frame is file scope: a declaration there defines a global.
type frame struct {
	vars map[*minic.Symbol]*interp.Object
}

// Run initializes globals and executes main, returning its exit status.
func (w *Walker) Run() (int, error) {
	if err := w.initGlobals(); err != nil {
		return 0, err
	}
	mainFn := w.m.Prog.Func("main")
	if mainFn == nil {
		return 0, errors.New("interp: program has no main function")
	}
	v, err := w.call(mainFn, nil)
	if code, ok := interp.ExitStatus(err); ok {
		return code, nil
	}
	if err != nil {
		return 0, err
	}
	return int(v.AsInt()), nil
}

// initGlobals runs the file-scope declarations once, in order. Each
// global is defined as soon as its initializer has run, so later
// initializers, and the functions they call, can read it.
func (w *Walker) initGlobals() error {
	if w.inited {
		return nil
	}
	w.inited = true
	for _, g := range w.m.Prog.Globals {
		if _, err := w.execDecl(nil, g); err != nil {
			return err
		}
	}
	return nil
}

// step charges one statement step against the machine's budget.
func (w *Walker) step() error { return w.m.AddSteps(1) }

func (w *Walker) call(fn *minic.FuncDecl, args []interp.Value) (interp.Value, error) {
	if len(args) != len(fn.Params) {
		return interp.Value{}, fmt.Errorf("interp: %s called with %d args, want %d", fn.Name, len(args), len(fn.Params))
	}
	f := &frame{vars: map[*minic.Symbol]*interp.Object{}}
	for i, p := range fn.Params {
		obj := interp.NewObject(p.Name, p.Type, 1, w.m.SpaceOf(p.Sym))
		obj.Cells[0] = interp.ConvertFor(p.Type, args[i])
		f.vars[p.Sym] = obj
	}
	c, err := w.execBlock(f, fn.Body)
	if err != nil {
		return interp.Value{}, err
	}
	if c.kind == ctrlReturn {
		return interp.ConvertFor(fn.Ret, c.val), nil
	}
	return interp.Value{}, nil
}

func (w *Walker) execBlock(f *frame, b *minic.Block) (ctrl, error) {
	for _, s := range b.Stmts {
		c, err := w.execStmt(f, s)
		if err != nil || c.kind != ctrlNone {
			return c, err
		}
	}
	return ctrl{}, nil
}

func (w *Walker) execStmt(f *frame, s minic.Stmt) (ctrl, error) {
	if err := w.step(); err != nil {
		return ctrl{}, err
	}
	w.cost.Op(1)
	switch st := s.(type) {
	case *minic.DeclStmt:
		return w.execDecl(f, st)
	case *minic.ExprStmt:
		_, err := w.eval(f, st.X)
		return ctrl{}, err
	case *minic.EmptyStmt:
		return ctrl{}, nil
	case *minic.Block:
		return w.execBlock(f, st)
	case *minic.If:
		cond, err := w.eval(f, st.Cond)
		if err != nil {
			return ctrl{}, err
		}
		if cond.Truthy() {
			return w.execStmt(f, st.Then)
		}
		if st.Else != nil {
			return w.execStmt(f, st.Else)
		}
		return ctrl{}, nil
	case *minic.While:
		for {
			cond, err := w.eval(f, st.Cond)
			if err != nil {
				return ctrl{}, err
			}
			if !cond.Truthy() {
				return ctrl{}, nil
			}
			c, err := w.execStmt(f, st.Body)
			if err != nil {
				return ctrl{}, err
			}
			switch c.kind {
			case ctrlBreak:
				return ctrl{}, nil
			case ctrlReturn:
				return c, nil
			}
			if err := w.step(); err != nil {
				return ctrl{}, err
			}
		}
	case *minic.For:
		if st.Init != nil {
			if _, err := w.execStmt(f, st.Init); err != nil {
				return ctrl{}, err
			}
		}
		for {
			if st.Cond != nil {
				cond, err := w.eval(f, st.Cond)
				if err != nil {
					return ctrl{}, err
				}
				if !cond.Truthy() {
					return ctrl{}, nil
				}
			}
			c, err := w.execStmt(f, st.Body)
			if err != nil {
				return ctrl{}, err
			}
			if c.kind == ctrlBreak {
				return ctrl{}, nil
			}
			if c.kind == ctrlReturn {
				return c, nil
			}
			if st.Post != nil {
				if _, err := w.eval(f, st.Post); err != nil {
					return ctrl{}, err
				}
			}
			if err := w.step(); err != nil {
				return ctrl{}, err
			}
		}
	case *minic.Return:
		var v interp.Value
		if st.X != nil {
			var err error
			v, err = w.eval(f, st.X)
			if err != nil {
				return ctrl{}, err
			}
		}
		return ctrl{kind: ctrlReturn, val: v}, nil
	case *minic.Break:
		return ctrl{kind: ctrlBreak}, nil
	case *minic.Continue:
		return ctrl{kind: ctrlContinue}, nil
	case *minic.PragmaStmt:
		// Pragmas are comments here: execute the body as-is.
		return w.execStmt(f, st.Body)
	default:
		return ctrl{}, fmt.Errorf("interp: unhandled statement %T", s)
	}
}

// execDecl allocates and initializes a declaration's objects in f, or,
// for the nil frame, defines them as globals.
func (w *Walker) execDecl(f *frame, d *minic.DeclStmt) (ctrl, error) {
	for _, decl := range d.Decls {
		n := 1
		elem := decl.Type
		if decl.Type.Kind == minic.TypeArray {
			n, elem = interp.FlattenArray(decl.Type)
			if n < 0 {
				return ctrl{}, fmt.Errorf("interp: array %q has unspecified length", decl.Name)
			}
		}
		obj := interp.NewObject(decl.Name, elem, n, w.m.SpaceOf(decl.Sym))
		if decl.Init != nil {
			v, err := w.eval(f, decl.Init)
			if err != nil {
				return ctrl{}, err
			}
			obj.Cells[0] = interp.ConvertFor(elem, v)
			w.cost.Store(obj.Space, elem.Size())
		}
		if f == nil {
			w.globals[decl.Sym] = obj
		} else {
			f.vars[decl.Sym] = obj
		}
	}
	return ctrl{}, nil
}

func (w *Walker) lookup(f *frame, sym *minic.Symbol) (*interp.Object, error) {
	if f != nil {
		if obj, ok := f.vars[sym]; ok {
			return obj, nil
		}
	}
	if obj := w.globals[sym]; obj != nil {
		return obj, nil
	}
	return nil, fmt.Errorf("interp: unresolved symbol %q", sym.Name)
}

// eval evaluates an expression for its value.
func (w *Walker) eval(f *frame, e minic.Expr) (interp.Value, error) {
	w.cost.Op(1)
	switch x := e.(type) {
	case *minic.IntLit:
		return interp.IntVal(x.Value), nil
	case *minic.FloatLit:
		return interp.FloatVal(x.Value), nil
	case *minic.CharLit:
		return interp.IntVal(int64(x.Value)), nil
	case *minic.StrLit:
		return interp.PtrVal(interp.Pointer{Obj: w.m.InternLiteral(x.Value)}), nil
	case *minic.Ident:
		if x.Sym != nil && x.Sym.Kind == minic.SymBuiltin {
			// stdin/stdout/stderr: opaque handles; the stream builtins
			// ignore them and use the machine's configured streams.
			return interp.PtrVal(interp.Pointer{Obj: w.m.Stdio(x.Name)}), nil
		}
		obj, err := w.lookup(f, x.Sym)
		if err != nil {
			return interp.Value{}, err
		}
		// Arrays decay to a pointer to their first cell.
		if x.Sym.Type != nil && x.Sym.Type.Kind == minic.TypeArray {
			return interp.PtrVal(interp.Pointer{Obj: obj}), nil
		}
		w.cost.Load(obj.Space, obj.Elem.Size())
		return obj.Cells[0], nil
	case *minic.Unary:
		return w.evalUnary(f, x)
	case *minic.Postfix:
		ptr, err := w.evalLValue(f, x.X)
		if err != nil {
			return interp.Value{}, err
		}
		old, err := w.m.LoadPtr(ptr)
		if err != nil {
			return interp.Value{}, err
		}
		delta := int64(1)
		if x.Op == "--" {
			delta = -1
		}
		if err := w.m.StorePtr(ptr, interp.AddInt(old, delta)); err != nil {
			return interp.Value{}, err
		}
		return old, nil
	case *minic.Binary:
		return w.evalBinary(f, x)
	case *minic.Assign:
		return w.evalAssign(f, x)
	case *minic.Cond:
		c, err := w.eval(f, x.C)
		if err != nil {
			return interp.Value{}, err
		}
		if c.Truthy() {
			return w.eval(f, x.T)
		}
		return w.eval(f, x.F)
	case *minic.Index:
		ptr, err := w.indexPointer(f, x)
		if err != nil {
			return interp.Value{}, err
		}
		// An index expression of array type (a row of a multi-dimensional
		// array) decays to a pointer rather than loading a cell.
		if t := x.Type(); t != nil && t.Kind == minic.TypeArray {
			return interp.PtrVal(ptr), nil
		}
		return w.m.LoadPtr(ptr)
	case *minic.Cast:
		v, err := w.eval(f, x.X)
		if err != nil {
			return interp.Value{}, err
		}
		return interp.ConvertFor(x.To, v), nil
	case *minic.SizeofType:
		return interp.IntVal(int64(x.Of.Size())), nil
	case *minic.Call:
		return w.evalCall(f, x)
	default:
		return interp.Value{}, fmt.Errorf("interp: unhandled expression %T", e)
	}
}

func (w *Walker) evalUnary(f *frame, x *minic.Unary) (interp.Value, error) {
	switch x.Op {
	case "&":
		ptr, err := w.evalLValue(f, x.X)
		if err != nil {
			return interp.Value{}, err
		}
		return interp.PtrVal(ptr), nil
	case "*":
		v, err := w.eval(f, x.X)
		if err != nil {
			return interp.Value{}, err
		}
		if v.Kind != interp.ValPtr || v.P.IsNull() {
			return interp.Value{}, fmt.Errorf("interp: %s: dereference of null or non-pointer", x.Pos)
		}
		return w.m.LoadPtr(v.P)
	case "-", "!", "~":
		v, err := w.eval(f, x.X)
		if err != nil {
			return interp.Value{}, err
		}
		return interp.ApplyUnary(x.Op, v)
	case "++", "--":
		ptr, err := w.evalLValue(f, x.X)
		if err != nil {
			return interp.Value{}, err
		}
		old, err := w.m.LoadPtr(ptr)
		if err != nil {
			return interp.Value{}, err
		}
		delta := int64(1)
		if x.Op == "--" {
			delta = -1
		}
		nv := interp.AddInt(old, delta)
		if err := w.m.StorePtr(ptr, nv); err != nil {
			return interp.Value{}, err
		}
		return nv, nil
	}
	return interp.Value{}, fmt.Errorf("interp: unhandled unary %q", x.Op)
}

func (w *Walker) evalBinary(f *frame, x *minic.Binary) (interp.Value, error) {
	// Short-circuit logicals first.
	if x.Op == "&&" || x.Op == "||" {
		l, err := w.eval(f, x.L)
		if err != nil {
			return interp.Value{}, err
		}
		if x.Op == "&&" && !l.Truthy() {
			return interp.IntVal(0), nil
		}
		if x.Op == "||" && l.Truthy() {
			return interp.IntVal(1), nil
		}
		r, err := w.eval(f, x.R)
		if err != nil {
			return interp.Value{}, err
		}
		if r.Truthy() {
			return interp.IntVal(1), nil
		}
		return interp.IntVal(0), nil
	}
	l, err := w.eval(f, x.L)
	if err != nil {
		return interp.Value{}, err
	}
	r, err := w.eval(f, x.R)
	if err != nil {
		return interp.Value{}, err
	}
	return interp.ApplyBinary(x.Op, l, r)
}

func (w *Walker) evalAssign(f *frame, x *minic.Assign) (interp.Value, error) {
	ptr, err := w.evalLValue(f, x.L)
	if err != nil {
		return interp.Value{}, err
	}
	rhs, err := w.eval(f, x.R)
	if err != nil {
		return interp.Value{}, err
	}
	if x.Op != "=" {
		cur, err := w.m.LoadPtr(ptr)
		if err != nil {
			return interp.Value{}, err
		}
		op := x.Op[:len(x.Op)-1] // "+=" -> "+"
		rhs, err = interp.ApplyBinary(op, cur, rhs)
		if err != nil {
			return interp.Value{}, err
		}
	}
	if err := w.m.StorePtr(ptr, rhs); err != nil {
		return interp.Value{}, err
	}
	return rhs, nil
}

// evalLValue resolves an expression to a storage location.
func (w *Walker) evalLValue(f *frame, e minic.Expr) (interp.Pointer, error) {
	switch x := e.(type) {
	case *minic.Ident:
		obj, err := w.lookup(f, x.Sym)
		if err != nil {
			return interp.Pointer{}, err
		}
		return interp.Pointer{Obj: obj}, nil
	case *minic.Index:
		return w.indexPointer(f, x)
	case *minic.Unary:
		if x.Op == "*" {
			v, err := w.eval(f, x.X)
			if err != nil {
				return interp.Pointer{}, err
			}
			if v.Kind != interp.ValPtr || v.P.IsNull() {
				return interp.Pointer{}, fmt.Errorf("interp: %s: store through null or non-pointer", x.Pos)
			}
			return v.P, nil
		}
	}
	return interp.Pointer{}, fmt.Errorf("interp: expression %T is not an lvalue", e)
}

// indexPointer computes the cell location of x[idx], linearizing
// multi-dimensional arrays.
func (w *Walker) indexPointer(f *frame, x *minic.Index) (interp.Pointer, error) {
	idx, err := w.eval(f, x.Idx)
	if err != nil {
		return interp.Pointer{}, err
	}
	i := int(idx.AsInt())
	// Multi-dim: base expression type is array-of-array; scale the index.
	bt := x.X.Type()
	stride := 1
	if bt != nil && bt.ElemType() != nil && bt.ElemType().Kind == minic.TypeArray {
		n, _ := interp.FlattenArray(bt.ElemType())
		if n > 0 {
			stride = n
		}
	}
	base, err := w.eval(f, x.X)
	if err != nil {
		return interp.Pointer{}, err
	}
	if base.Kind != interp.ValPtr || base.P.IsNull() {
		return interp.Pointer{}, fmt.Errorf("interp: %s: index of null or non-pointer", x.Pos)
	}
	return interp.Pointer{Obj: base.P.Obj, Off: base.P.Off + i*stride}, nil
}

func (w *Walker) evalCall(f *frame, x *minic.Call) (interp.Value, error) {
	// __sizeof_var takes its argument unevaluated.
	if x.Name == "__sizeof_var" {
		id, ok := x.Args[0].(*minic.Ident)
		if !ok || id.Sym == nil {
			return interp.Value{}, fmt.Errorf("interp: sizeof of non-variable")
		}
		return interp.IntVal(int64(id.Sym.Type.Size())), nil
	}
	args := make([]interp.Value, len(x.Args))
	for i, a := range x.Args {
		v, err := w.eval(f, a)
		if err != nil {
			return interp.Value{}, err
		}
		args[i] = v
	}
	if impl, ok := w.m.BuiltinNamed(x.Name); ok && x.Builtin {
		w.cost.Op(2)
		return impl(w.m, args)
	}
	fn := w.m.Prog.Func(x.Name)
	if fn == nil {
		// Intrinsic installed without sema marking (translator-generated
		// call sites).
		if impl, ok := w.m.BuiltinNamed(x.Name); ok {
			w.cost.Op(2)
			return impl(w.m, args)
		}
		return interp.Value{}, fmt.Errorf("interp: call of unknown function %q", x.Name)
	}
	w.cost.Op(4) // call overhead
	return w.call(fn, args)
}
