// Package interp executes MiniC programs. It provides the CPU-side
// execution of Hadoop Streaming map/combine/reduce filters and, re-hosted
// with GPU intrinsics by package gpurt, the per-thread execution of
// translated GPU kernels.
//
// The interpreter uses an addressable object memory model: every variable
// is an Object of one or more cells, and pointers are (object, offset)
// pairs, which supports &x, *p, pointer arithmetic, and char buffers. Every
// object carries a memory-space tag so that a pluggable CostSink can charge
// loads and stores to the right level of the simulated memory hierarchy.
package interp

import (
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/minic"
)

// MemSpace identifies which simulated memory an object lives in. The CPU
// path uses SpaceRAM for everything; the GPU path tags objects per the
// translator's placement decisions (paper §3.2, Algorithm 1).
type MemSpace uint8

// Memory spaces.
const (
	SpaceRAM      MemSpace = iota // CPU main memory
	SpaceReg                      // GPU registers / private scalars
	SpaceLocal                    // GPU per-thread local (private arrays)
	SpaceShared                   // GPU per-SM shared memory
	SpaceGlobal                   // GPU device (global) memory
	SpaceConstant                 // GPU constant memory (kernel params)
	SpaceTexture                  // GPU texture memory (cached read-only)
)

func (s MemSpace) String() string {
	switch s {
	case SpaceRAM:
		return "ram"
	case SpaceReg:
		return "reg"
	case SpaceLocal:
		return "local"
	case SpaceShared:
		return "shared"
	case SpaceGlobal:
		return "global"
	case SpaceConstant:
		return "constant"
	case SpaceTexture:
		return "texture"
	default:
		return "?"
	}
}

// CostSink receives execution cost events. Implementations must be cheap;
// the interpreter calls them on every operation.
type CostSink interface {
	// Op charges n generic ALU/control operations.
	Op(n int)
	// Load charges a read of width bytes from space.
	Load(space MemSpace, width int)
	// Store charges a write of width bytes to space.
	Store(space MemSpace, width int)
}

// NopSink discards all cost events.
type NopSink struct{}

// Op implements CostSink.
func (NopSink) Op(int) {}

// Load implements CostSink.
func (NopSink) Load(MemSpace, int) {}

// Store implements CostSink.
func (NopSink) Store(MemSpace, int) {}

// CountingSink tallies cost events; used for the CPU timing model and in
// tests.
type CountingSink struct {
	Ops    int64
	Loads  int64
	Stores int64
	// Bytes by space, indexed by MemSpace.
	LoadBytes  [8]int64
	StoreBytes [8]int64
}

// Op implements CostSink.
func (c *CountingSink) Op(n int) { c.Ops += int64(n) }

// Load implements CostSink.
func (c *CountingSink) Load(s MemSpace, w int) { c.Loads++; c.LoadBytes[s] += int64(w) }

// Store implements CostSink.
func (c *CountingSink) Store(s MemSpace, w int) { c.Stores++; c.StoreBytes[s] += int64(w) }

// ValKind tags runtime values.
type ValKind uint8

// Value kinds.
const (
	ValInt ValKind = iota
	ValFloat
	ValPtr
)

// Object is a block of storage: a scalar (1 cell), an array, or a malloc'd
// buffer. Cells hold Values of the object's element kind.
type Object struct {
	Cells []Value
	Elem  *minic.Type
	Space MemSpace
	Name  string
}

// NewObject allocates an object of n cells of elem type in space.
func NewObject(name string, elem *minic.Type, n int, space MemSpace) *Object {
	return &Object{Cells: make([]Value, n), Elem: elem, Space: space, Name: name}
}

// Pointer references a cell within an object. A nil Obj is the null
// pointer.
type Pointer struct {
	Obj *Object
	Off int
}

// IsNull reports whether p is the null pointer.
func (p Pointer) IsNull() bool { return p.Obj == nil }

// InBounds reports whether p addresses a cell of its object.
func (p Pointer) InBounds() bool { return p.Obj != nil && p.Off >= 0 && p.Off < len(p.Obj.Cells) }

// Value is a runtime value. I holds an int, or a float's IEEE bits (read
// them with F), so every .I read must first check Kind. Four machine words
// is the most the Go compiler keeps in registers; a fifth makes every
// register move, cell access and return a memory copy.
type Value struct {
	Kind ValKind
	I    int64
	P    Pointer
}

// IntVal builds an integer value.
func IntVal(i int64) Value { return Value{Kind: ValInt, I: i} }

// FloatVal builds a float value.
func FloatVal(f float64) Value { return Value{Kind: ValFloat, I: int64(math.Float64bits(f))} }

// F reads a float value's payload; it is meaningless for other kinds.
func (v Value) F() float64 { return math.Float64frombits(uint64(v.I)) }

// PtrVal builds a pointer value.
func PtrVal(p Pointer) Value { return Value{Kind: ValPtr, P: p} }

// AsInt coerces to int64 (floats truncate, pointers are truthy-only).
func (v Value) AsInt() int64 {
	switch v.Kind {
	case ValInt:
		return v.I
	case ValFloat:
		return int64(v.F())
	case ValPtr:
		if v.P.IsNull() {
			return 0
		}
		return 1
	}
	return 0
}

// AsFloat coerces to float64.
func (v Value) AsFloat() float64 {
	switch v.Kind {
	case ValInt:
		return float64(v.I)
	case ValFloat:
		return v.F()
	}
	return 0
}

// Truthy reports C truthiness.
func (v Value) Truthy() bool {
	switch v.Kind {
	case ValInt:
		return v.I != 0
	case ValFloat:
		return v.F() != 0
	case ValPtr:
		return !v.P.IsNull()
	}
	return false
}

// Builtin is a runtime-provided function implementation.
type Builtin func(m *Machine, args []Value) (Value, error)

// Options configures a Machine.
type Options struct {
	// Stdin supplies input records; nil means empty input.
	Stdin io.Reader
	// Stdout receives printf output; nil discards it.
	Stdout io.Writer
	// Cost receives cost events; nil installs NopSink.
	Cost CostSink
	// Intrinsics add or override builtin implementations (used by the GPU
	// runtime to supply getRecord, emitKV, ...).
	Intrinsics map[string]Builtin
	// DefaultSpace is the memory space for newly allocated objects.
	DefaultSpace MemSpace
	// SpaceFor, when non-nil, picks the memory space for a symbol's
	// storage; used by the GPU path to honor the translator's placements.
	SpaceFor func(sym *minic.Symbol) MemSpace
	// MaxSteps bounds the number of statements executed (0 = default cap).
	MaxSteps int64
	// OnPragma, when non-nil, intercepts mapreduce pragma statements. The
	// GPU driver uses it to capture host variable values at the kernel
	// launch point and skip CPU execution of the region (handled=true).
	OnPragma func(p *minic.PragmaStmt, fr *Frame) (handled bool, err error)
}

// ErrMaxSteps is returned when the execution step budget is exhausted.
var ErrMaxSteps = errors.New("interp: step budget exhausted (possible infinite loop)")

// errExit carries the exit() status through unwinding.
type errExit struct{ code int }

func (e errExit) Error() string { return fmt.Sprintf("exit(%d)", e.code) }

// Machine executes one MiniC program instance. Machines are not safe for
// concurrent use; create one per simulated thread.
type Machine struct {
	Prog *minic.Program

	stdin    tokenReader
	stdout   io.Writer
	cost     CostSink
	builtins map[string]Builtin
	space    MemSpace
	spaceFor func(sym *minic.Symbol) MemSpace

	globals  map[*minic.Symbol]*Object
	literals map[string]*Object
	onPragma func(p *minic.PragmaStmt, fr *Frame) (bool, error)

	steps    int64
	maxSteps int64
}

type ctrlKind uint8

const (
	ctrlNone ctrlKind = iota
	ctrlBreak
	ctrlContinue
	ctrlReturn
)

type ctrl struct {
	kind ctrlKind
	val  Value
}

// frame is one function invocation's storage, keyed by resolved symbol.
type frame struct {
	vars map[*minic.Symbol]*Object
}

// New builds a machine for prog. The program must have passed minic.Check.
func New(prog *minic.Program, opts Options) *Machine {
	m := &Machine{
		Prog:     prog,
		stdin:    tokenReader{src: opts.Stdin},
		stdout:   opts.Stdout,
		cost:     opts.Cost,
		space:    opts.DefaultSpace,
		spaceFor: opts.SpaceFor,
		globals:  map[*minic.Symbol]*Object{},
		literals: map[string]*Object{},
		onPragma: opts.OnPragma,
		maxSteps: opts.MaxSteps,
	}
	if m.cost == nil {
		m.cost = NopSink{}
	}
	if m.maxSteps == 0 {
		m.maxSteps = 2_000_000_000
	}
	m.builtins = map[string]Builtin{}
	for name, fn := range stdlib {
		m.builtins[name] = fn
	}
	//detlint:ignore map-iteration: copying into a fresh map, which iteration order cannot change
	for name, fn := range opts.Intrinsics {
		m.builtins[name] = fn
	}
	return m
}

// Steps reports statements executed so far.
func (m *Machine) Steps() int64 { return m.steps }

// Run initializes globals and executes main, returning its exit status.
func (m *Machine) Run() (int, error) {
	if err := m.initGlobals(); err != nil {
		return 0, err
	}
	mainFn := m.Prog.Func("main")
	if mainFn == nil {
		return 0, errors.New("interp: program has no main function")
	}
	v, err := m.call(mainFn, nil)
	var ex errExit
	if errors.As(err, &ex) {
		return ex.code, nil
	}
	if err != nil {
		return 0, err
	}
	return int(v.AsInt()), nil
}

var globalsDone = &Object{}

func (m *Machine) initGlobals() error {
	if m.globals[nil] == globalsDone {
		return nil
	}
	m.globals[nil] = globalsDone
	f := &frame{vars: m.globals}
	for _, g := range m.Prog.Globals {
		if _, err := m.execDecl(f, g); err != nil {
			return err
		}
	}
	return nil
}

func (m *Machine) spaceOf(sym *minic.Symbol) MemSpace {
	if m.spaceFor != nil {
		return m.spaceFor(sym)
	}
	return m.space
}

func (m *Machine) call(fn *minic.FuncDecl, args []Value) (Value, error) {
	if len(args) != len(fn.Params) {
		return Value{}, fmt.Errorf("interp: %s called with %d args, want %d", fn.Name, len(args), len(fn.Params))
	}
	f := &frame{vars: map[*minic.Symbol]*Object{}}
	for i, p := range fn.Params {
		obj := NewObject(p.Name, p.Type, 1, m.spaceOf(p.Sym))
		obj.Cells[0] = convertFor(p.Type, args[i])
		f.vars[p.Sym] = obj
	}
	c, err := m.execBlock(f, fn.Body)
	if err != nil {
		return Value{}, err
	}
	if c.kind == ctrlReturn {
		return convertFor(fn.Ret, c.val), nil
	}
	return Value{}, nil
}

func (m *Machine) execBlock(f *frame, b *minic.Block) (ctrl, error) {
	for _, s := range b.Stmts {
		c, err := m.execStmt(f, s)
		if err != nil || c.kind != ctrlNone {
			return c, err
		}
	}
	return ctrl{}, nil
}

func (m *Machine) execStmt(f *frame, s minic.Stmt) (ctrl, error) {
	m.steps++
	if m.steps > m.maxSteps {
		return ctrl{}, ErrMaxSteps
	}
	m.cost.Op(1)
	switch st := s.(type) {
	case *minic.DeclStmt:
		return m.execDecl(f, st)
	case *minic.ExprStmt:
		_, err := m.eval(f, st.X)
		return ctrl{}, err
	case *minic.EmptyStmt:
		return ctrl{}, nil
	case *minic.Block:
		return m.execBlock(f, st)
	case *minic.If:
		cond, err := m.eval(f, st.Cond)
		if err != nil {
			return ctrl{}, err
		}
		if cond.Truthy() {
			return m.execStmt(f, st.Then)
		}
		if st.Else != nil {
			return m.execStmt(f, st.Else)
		}
		return ctrl{}, nil
	case *minic.While:
		for {
			cond, err := m.eval(f, st.Cond)
			if err != nil {
				return ctrl{}, err
			}
			if !cond.Truthy() {
				return ctrl{}, nil
			}
			c, err := m.execStmt(f, st.Body)
			if err != nil {
				return ctrl{}, err
			}
			switch c.kind {
			case ctrlBreak:
				return ctrl{}, nil
			case ctrlReturn:
				return c, nil
			}
			m.steps++
			if m.steps > m.maxSteps {
				return ctrl{}, ErrMaxSteps
			}
		}
	case *minic.For:
		if st.Init != nil {
			if _, err := m.execStmt(f, st.Init); err != nil {
				return ctrl{}, err
			}
		}
		for {
			if st.Cond != nil {
				cond, err := m.eval(f, st.Cond)
				if err != nil {
					return ctrl{}, err
				}
				if !cond.Truthy() {
					return ctrl{}, nil
				}
			}
			c, err := m.execStmt(f, st.Body)
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
				if _, err := m.eval(f, st.Post); err != nil {
					return ctrl{}, err
				}
			}
			m.steps++
			if m.steps > m.maxSteps {
				return ctrl{}, ErrMaxSteps
			}
		}
	case *minic.Return:
		var v Value
		if st.X != nil {
			var err error
			v, err = m.eval(f, st.X)
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
		if m.onPragma != nil && st.IsMapReduce() {
			handled, err := m.onPragma(st, &Frame{f: f})
			if err != nil {
				return ctrl{}, err
			}
			if handled {
				return ctrl{}, nil
			}
		}
		// On the CPU path, pragmas are comments: execute the body as-is.
		return m.execStmt(f, st.Body)
	default:
		return ctrl{}, fmt.Errorf("interp: unhandled statement %T", s)
	}
}

func (m *Machine) execDecl(f *frame, d *minic.DeclStmt) (ctrl, error) {
	for _, decl := range d.Decls {
		n := 1
		elem := decl.Type
		if decl.Type.Kind == minic.TypeArray {
			n, elem = flattenArray(decl.Type)
			if n < 0 {
				return ctrl{}, fmt.Errorf("interp: array %q has unspecified length", decl.Name)
			}
		}
		obj := NewObject(decl.Name, elem, n, m.spaceOf(decl.Sym))
		if decl.Init != nil {
			v, err := m.eval(f, decl.Init)
			if err != nil {
				return ctrl{}, err
			}
			obj.Cells[0] = convertFor(elem, v)
			m.cost.Store(obj.Space, elem.Size())
		}
		f.vars[decl.Sym] = obj
	}
	return ctrl{}, nil
}

// flattenArray reduces a possibly multi-dimensional array type to a total
// cell count and scalar element type. Multi-dimensional indexing is
// linearized by the evaluator.
func flattenArray(t *minic.Type) (int, *minic.Type) {
	n := 1
	for t.Kind == minic.TypeArray {
		if t.Len < 0 {
			return -1, nil
		}
		n *= t.Len
		t = t.Elem
	}
	return n, t
}

func (m *Machine) lookup(f *frame, sym *minic.Symbol) (*Object, error) {
	if obj, ok := f.vars[sym]; ok {
		return obj, nil
	}
	if obj, ok := m.globals[sym]; ok {
		return obj, nil
	}
	return nil, fmt.Errorf("interp: unresolved symbol %q", sym.Name)
}

// eval evaluates an expression for its value.
func (m *Machine) eval(f *frame, e minic.Expr) (Value, error) {
	m.cost.Op(1)
	switch x := e.(type) {
	case *minic.IntLit:
		return IntVal(x.Value), nil
	case *minic.FloatLit:
		return FloatVal(x.Value), nil
	case *minic.CharLit:
		return IntVal(int64(x.Value)), nil
	case *minic.StrLit:
		return PtrVal(Pointer{Obj: m.internLiteral(x.Value)}), nil
	case *minic.Ident:
		if x.Sym != nil && x.Sym.Kind == minic.SymBuiltin {
			// stdin/stdout/stderr: opaque handles; the stream builtins
			// ignore them and use the machine's configured streams.
			return PtrVal(Pointer{Obj: m.stdioHandle(x.Name)}), nil
		}
		obj, err := m.lookup(f, x.Sym)
		if err != nil {
			return Value{}, err
		}
		// Arrays decay to a pointer to their first cell.
		if x.Sym.Type != nil && x.Sym.Type.Kind == minic.TypeArray {
			return PtrVal(Pointer{Obj: obj}), nil
		}
		m.cost.Load(obj.Space, obj.Elem.Size())
		return obj.Cells[0], nil
	case *minic.Unary:
		return m.evalUnary(f, x)
	case *minic.Postfix:
		ptr, err := m.evalLValue(f, x.X)
		if err != nil {
			return Value{}, err
		}
		old, err := m.load(ptr)
		if err != nil {
			return Value{}, err
		}
		delta := int64(1)
		if x.Op == "--" {
			delta = -1
		}
		if err := m.store(ptr, addInt(old, delta)); err != nil {
			return Value{}, err
		}
		return old, nil
	case *minic.Binary:
		return m.evalBinary(f, x)
	case *minic.Assign:
		return m.evalAssign(f, x)
	case *minic.Cond:
		c, err := m.eval(f, x.C)
		if err != nil {
			return Value{}, err
		}
		if c.Truthy() {
			return m.eval(f, x.T)
		}
		return m.eval(f, x.F)
	case *minic.Index:
		ptr, err := m.indexPointer(f, x)
		if err != nil {
			return Value{}, err
		}
		// An index expression of array type (a row of a multi-dimensional
		// array) decays to a pointer rather than loading a cell.
		if t := x.Type(); t != nil && t.Kind == minic.TypeArray {
			return PtrVal(ptr), nil
		}
		return m.load(ptr)
	case *minic.Cast:
		v, err := m.eval(f, x.X)
		if err != nil {
			return Value{}, err
		}
		return convertFor(x.To, v), nil
	case *minic.SizeofType:
		return IntVal(int64(x.Of.Size())), nil
	case *minic.Call:
		return m.evalCall(f, x)
	default:
		return Value{}, fmt.Errorf("interp: unhandled expression %T", e)
	}
}

func (m *Machine) evalUnary(f *frame, x *minic.Unary) (Value, error) {
	switch x.Op {
	case "&":
		ptr, err := m.evalLValue(f, x.X)
		if err != nil {
			return Value{}, err
		}
		return PtrVal(ptr), nil
	case "*":
		v, err := m.eval(f, x.X)
		if err != nil {
			return Value{}, err
		}
		if v.Kind != ValPtr || v.P.IsNull() {
			return Value{}, fmt.Errorf("interp: %s: dereference of null or non-pointer", x.Pos)
		}
		return m.load(v.P)
	case "-":
		v, err := m.eval(f, x.X)
		if err != nil {
			return Value{}, err
		}
		if v.Kind == ValFloat {
			return FloatVal(-v.F()), nil
		}
		return IntVal(-v.AsInt()), nil
	case "!":
		v, err := m.eval(f, x.X)
		if err != nil {
			return Value{}, err
		}
		if v.Truthy() {
			return IntVal(0), nil
		}
		return IntVal(1), nil
	case "~":
		v, err := m.eval(f, x.X)
		if err != nil {
			return Value{}, err
		}
		return IntVal(^v.AsInt()), nil
	case "++", "--":
		ptr, err := m.evalLValue(f, x.X)
		if err != nil {
			return Value{}, err
		}
		old, err := m.load(ptr)
		if err != nil {
			return Value{}, err
		}
		delta := int64(1)
		if x.Op == "--" {
			delta = -1
		}
		nv := addInt(old, delta)
		if err := m.store(ptr, nv); err != nil {
			return Value{}, err
		}
		return nv, nil
	}
	return Value{}, fmt.Errorf("interp: unhandled unary %q", x.Op)
}

func addInt(v Value, d int64) Value {
	switch v.Kind {
	case ValFloat:
		return FloatVal(v.F() + float64(d))
	case ValPtr:
		return PtrVal(Pointer{Obj: v.P.Obj, Off: v.P.Off + int(d)})
	default:
		return IntVal(v.I + d)
	}
}

func (m *Machine) evalBinary(f *frame, x *minic.Binary) (Value, error) {
	// Short-circuit logicals first.
	if x.Op == "&&" || x.Op == "||" {
		l, err := m.eval(f, x.L)
		if err != nil {
			return Value{}, err
		}
		if x.Op == "&&" && !l.Truthy() {
			return IntVal(0), nil
		}
		if x.Op == "||" && l.Truthy() {
			return IntVal(1), nil
		}
		r, err := m.eval(f, x.R)
		if err != nil {
			return Value{}, err
		}
		if r.Truthy() {
			return IntVal(1), nil
		}
		return IntVal(0), nil
	}
	l, err := m.eval(f, x.L)
	if err != nil {
		return Value{}, err
	}
	r, err := m.eval(f, x.R)
	if err != nil {
		return Value{}, err
	}
	return applyBinary(x.Op, l, r)
}

func applyBinary(op string, l, r Value) (Value, error) {
	// Pointer arithmetic and comparisons.
	if l.Kind == ValPtr || r.Kind == ValPtr {
		switch op {
		case "+":
			if l.Kind == ValPtr {
				return PtrVal(Pointer{Obj: l.P.Obj, Off: l.P.Off + int(r.AsInt())}), nil
			}
			return PtrVal(Pointer{Obj: r.P.Obj, Off: r.P.Off + int(l.AsInt())}), nil
		case "-":
			if l.Kind == ValPtr && r.Kind == ValPtr {
				if l.P.Obj != r.P.Obj {
					return Value{}, errors.New("interp: subtraction of pointers into different objects")
				}
				return IntVal(int64(l.P.Off - r.P.Off)), nil
			}
			if l.Kind == ValPtr {
				return PtrVal(Pointer{Obj: l.P.Obj, Off: l.P.Off - int(r.AsInt())}), nil
			}
			return Value{}, errors.New("interp: int - pointer is not defined")
		case "==", "!=":
			eq := false
			if l.Kind == ValPtr && r.Kind == ValPtr {
				eq = l.P == r.P
			} else if l.Kind == ValPtr {
				eq = l.P.IsNull() && r.AsInt() == 0
			} else {
				eq = r.P.IsNull() && l.AsInt() == 0
			}
			if (op == "==") == eq {
				return IntVal(1), nil
			}
			return IntVal(0), nil
		case "<", ">", "<=", ">=":
			if l.Kind != ValPtr || r.Kind != ValPtr || l.P.Obj != r.P.Obj {
				return Value{}, errors.New("interp: relational compare of unrelated pointers")
			}
			return cmpResult(op, int64(l.P.Off), int64(r.P.Off)), nil
		default:
			return Value{}, fmt.Errorf("interp: operator %q not defined on pointers", op)
		}
	}
	if l.Kind == ValFloat || r.Kind == ValFloat {
		lf, rf := l.AsFloat(), r.AsFloat()
		switch op {
		case "+":
			return FloatVal(lf + rf), nil
		case "-":
			return FloatVal(lf - rf), nil
		case "*":
			return FloatVal(lf * rf), nil
		case "/":
			if rf == 0 {
				return Value{}, errors.New("interp: float division by zero")
			}
			return FloatVal(lf / rf), nil
		case "==":
			return boolVal(lf == rf), nil
		case "!=":
			return boolVal(lf != rf), nil
		case "<":
			return boolVal(lf < rf), nil
		case ">":
			return boolVal(lf > rf), nil
		case "<=":
			return boolVal(lf <= rf), nil
		case ">=":
			return boolVal(lf >= rf), nil
		default:
			return Value{}, fmt.Errorf("interp: operator %q not defined on floats", op)
		}
	}
	li, ri := l.AsInt(), r.AsInt()
	switch op {
	case "+":
		return IntVal(li + ri), nil
	case "-":
		return IntVal(li - ri), nil
	case "*":
		return IntVal(li * ri), nil
	case "/":
		if ri == 0 {
			return Value{}, errors.New("interp: integer division by zero")
		}
		return IntVal(li / ri), nil
	case "%":
		if ri == 0 {
			return Value{}, errors.New("interp: integer modulo by zero")
		}
		return IntVal(li % ri), nil
	case "<<":
		return IntVal(li << uint(ri&63)), nil
	case ">>":
		return IntVal(li >> uint(ri&63)), nil
	case "&":
		return IntVal(li & ri), nil
	case "|":
		return IntVal(li | ri), nil
	case "^":
		return IntVal(li ^ ri), nil
	case "==", "!=", "<", ">", "<=", ">=":
		return cmpResult(op, li, ri), nil
	}
	return Value{}, fmt.Errorf("interp: unhandled binary operator %q", op)
}

func cmpResult(op string, a, b int64) Value {
	var res bool
	switch op {
	case "==":
		res = a == b
	case "!=":
		res = a != b
	case "<":
		res = a < b
	case ">":
		res = a > b
	case "<=":
		res = a <= b
	case ">=":
		res = a >= b
	}
	return boolVal(res)
}

func boolVal(b bool) Value {
	if b {
		return IntVal(1)
	}
	return IntVal(0)
}

func (m *Machine) evalAssign(f *frame, x *minic.Assign) (Value, error) {
	ptr, err := m.evalLValue(f, x.L)
	if err != nil {
		return Value{}, err
	}
	rhs, err := m.eval(f, x.R)
	if err != nil {
		return Value{}, err
	}
	if x.Op != "=" {
		cur, err := m.load(ptr)
		if err != nil {
			return Value{}, err
		}
		op := x.Op[:len(x.Op)-1] // "+=" -> "+"
		rhs, err = applyBinary(op, cur, rhs)
		if err != nil {
			return Value{}, err
		}
	}
	if err := m.store(ptr, rhs); err != nil {
		return Value{}, err
	}
	return rhs, nil
}

// evalLValue resolves an expression to a storage location.
func (m *Machine) evalLValue(f *frame, e minic.Expr) (Pointer, error) {
	switch x := e.(type) {
	case *minic.Ident:
		obj, err := m.lookup(f, x.Sym)
		if err != nil {
			return Pointer{}, err
		}
		return Pointer{Obj: obj}, nil
	case *minic.Index:
		return m.indexPointer(f, x)
	case *minic.Unary:
		if x.Op == "*" {
			v, err := m.eval(f, x.X)
			if err != nil {
				return Pointer{}, err
			}
			if v.Kind != ValPtr || v.P.IsNull() {
				return Pointer{}, fmt.Errorf("interp: %s: store through null or non-pointer", x.Pos)
			}
			return v.P, nil
		}
	}
	return Pointer{}, fmt.Errorf("interp: expression %T is not an lvalue", e)
}

// indexPointer computes the cell location of x[idx], linearizing
// multi-dimensional arrays.
func (m *Machine) indexPointer(f *frame, x *minic.Index) (Pointer, error) {
	idx, err := m.eval(f, x.Idx)
	if err != nil {
		return Pointer{}, err
	}
	i := int(idx.AsInt())
	// Multi-dim: base expression type is array-of-array; scale the index.
	bt := x.X.Type()
	stride := 1
	if bt != nil && bt.ElemType() != nil && bt.ElemType().Kind == minic.TypeArray {
		n, _ := flattenArray(bt.ElemType())
		if n > 0 {
			stride = n
		}
	}
	base, err := m.eval(f, x.X)
	if err != nil {
		return Pointer{}, err
	}
	if base.Kind != ValPtr || base.P.IsNull() {
		return Pointer{}, fmt.Errorf("interp: %s: index of null or non-pointer", x.Pos)
	}
	return Pointer{Obj: base.P.Obj, Off: base.P.Off + i*stride}, nil
}

func (m *Machine) load(p Pointer) (Value, error) {
	if p.IsNull() || p.Off < 0 || p.Off >= len(p.Obj.Cells) {
		return Value{}, fmt.Errorf("interp: load out of bounds (%s[%d] of %d)", objName(p.Obj), p.Off, objLen(p.Obj))
	}
	m.cost.Load(p.Obj.Space, p.Obj.Elem.Size())
	return p.Obj.Cells[p.Off], nil
}

func (m *Machine) store(p Pointer, v Value) error {
	if p.IsNull() || p.Off < 0 || p.Off >= len(p.Obj.Cells) {
		return fmt.Errorf("interp: store out of bounds (%s[%d] of %d)", objName(p.Obj), p.Off, objLen(p.Obj))
	}
	m.cost.Store(p.Obj.Space, p.Obj.Elem.Size())
	p.Obj.Cells[p.Off] = convertFor(p.Obj.Elem, v)
	return nil
}

func objName(o *Object) string {
	if o == nil {
		return "<null>"
	}
	if o.Name == "" {
		return "<anon>"
	}
	return o.Name
}

func objLen(o *Object) int {
	if o == nil {
		return 0
	}
	return len(o.Cells)
}

// convertFor converts v to the storage representation of type t.
func convertFor(t *minic.Type, v Value) Value {
	if t == nil {
		return v
	}
	switch t.Kind {
	case minic.TypeChar:
		return IntVal(int64(byte(v.AsInt())))
	case minic.TypeInt:
		return IntVal(int64(int32(v.AsInt())))
	case minic.TypeLong:
		return IntVal(v.AsInt())
	case minic.TypeFloat:
		return FloatVal(float64(float32(v.AsFloat())))
	case minic.TypeDouble:
		return FloatVal(v.AsFloat())
	case minic.TypePointer:
		if v.Kind == ValPtr {
			return v
		}
		if v.AsInt() == 0 {
			return PtrVal(Pointer{})
		}
		return v
	default:
		return v
	}
}

func (m *Machine) evalCall(f *frame, x *minic.Call) (Value, error) {
	// __sizeof_var takes its argument unevaluated.
	if x.Name == "__sizeof_var" {
		id, ok := x.Args[0].(*minic.Ident)
		if !ok || id.Sym == nil {
			return Value{}, fmt.Errorf("interp: sizeof of non-variable")
		}
		return IntVal(int64(id.Sym.Type.Size())), nil
	}
	args := make([]Value, len(x.Args))
	for i, a := range x.Args {
		v, err := m.eval(f, a)
		if err != nil {
			return Value{}, err
		}
		args[i] = v
	}
	if impl, ok := m.builtins[x.Name]; ok && x.Builtin {
		m.cost.Op(2)
		return impl(m, args)
	}
	fn := m.Prog.Func(x.Name)
	if fn == nil {
		// Intrinsic installed without sema marking (translator-generated
		// call sites).
		if impl, ok := m.builtins[x.Name]; ok {
			m.cost.Op(2)
			return impl(m, args)
		}
		return Value{}, fmt.Errorf("interp: call of unknown function %q", x.Name)
	}
	m.cost.Op(4) // call overhead
	return m.call(fn, args)
}

// stdioHandle returns a stable opaque object for a stdio stream name.
func (m *Machine) stdioHandle(name string) *Object {
	key := "\x00stdio:" + name
	if obj, ok := m.literals[key]; ok {
		return obj
	}
	obj := NewObject(name, minic.CharType, 1, m.space)
	m.literals[key] = obj
	return obj
}

// internLiteral returns the shared object for a string literal.
func (m *Machine) internLiteral(s string) *Object {
	if obj, ok := m.literals[s]; ok {
		return obj
	}
	obj := NewObject("literal", minic.CharType, len(s)+1, m.space)
	for i := 0; i < len(s); i++ {
		obj.Cells[i] = IntVal(int64(s[i]))
	}
	obj.Cells[len(s)] = IntVal(0)
	m.literals[s] = obj
	return obj
}

// ReadCString reads a NUL-terminated string starting at p. A pointer
// before its object reads as the empty string, like one past its end.
func ReadCString(p Pointer) string {
	if p.IsNull() || p.Off < 0 {
		return ""
	}
	var b []byte
	for i := p.Off; i < len(p.Obj.Cells); i++ {
		c := byte(p.Obj.Cells[i].AsInt())
		if c == 0 {
			break
		}
		b = append(b, c)
	}
	return string(b)
}

// WriteCString writes s plus a NUL terminator at p. It reports the number
// of bytes written (excluding the NUL) and fails silently by truncation if
// the object is too small, like a C buffer overflow would be UB — here we
// clamp instead (a pointer before its object writes nothing).
func WriteCString(p Pointer, s string) int {
	if p.IsNull() || p.Off < 0 {
		return 0
	}
	n := 0
	for i := 0; i < len(s); i++ {
		off := p.Off + i
		if off >= len(p.Obj.Cells) {
			break
		}
		p.Obj.Cells[off] = IntVal(int64(s[i]))
		n++
	}
	if p.Off+n < len(p.Obj.Cells) {
		p.Obj.Cells[p.Off+n] = IntVal(0)
	}
	return n
}
