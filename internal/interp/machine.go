// Package interp is the MiniC runtime: values, operators and conversions,
// the standard library, and the Machine that holds one program run's
// state. The bytecode VM (package bytecode) executes every MiniC stage
// against a Machine: the CPU-side Hadoop Streaming map/combine/reduce
// filters and, with GPU intrinsics from package gpurt, every simulated
// thread of a translated GPU kernel. The tree-walking reference evaluator
// the VM is tested against lives in interp/walker, which only tests use.
//
// The runtime uses an addressable object memory model: every variable is
// an Object of one or more cells, and pointers are (object, offset) pairs,
// which supports &x, *p, pointer arithmetic, and char buffers. Every
// object carries a memory-space tag so that a pluggable CostSink can
// charge loads and stores to the right level of the simulated memory
// hierarchy.
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
	// runtime to supply getRecord, emitKV, ...). The machine reads the map
	// in place, so it must not change while the machine runs.
	Intrinsics map[string]Builtin
	// DefaultSpace is the memory space for newly allocated objects.
	DefaultSpace MemSpace
	// SpaceFor, when non-nil, picks the memory space for a symbol's
	// storage; used by the GPU path to honor the translator's placements.
	SpaceFor func(sym *minic.Symbol) MemSpace
	// MaxSteps bounds the number of statements executed (0 = default cap).
	MaxSteps int64
}

// ErrMaxSteps is returned when the execution step budget is exhausted.
var ErrMaxSteps = errors.New("interp: step budget exhausted (possible infinite loop)")

// errExit carries the exit() status through unwinding.
type errExit struct{ code int }

func (e errExit) Error() string { return fmt.Sprintf("exit(%d)", e.code) }

// Machine holds the state of one MiniC program run: object memory,
// interned literals, the builtin table, the streams, the cost sink and
// the step budget. Machines are not safe for concurrent use; create one
// per simulated thread.
type Machine struct {
	Prog *minic.Program

	stdin      io.Reader
	stdout     io.Writer
	cost       CostSink
	intrinsics map[string]Builtin
	space      MemSpace
	spaceFor   func(sym *minic.Symbol) MemSpace

	// literals and std are created on first use: most simulated GPU
	// threads intern no literal and make no stdio call.
	literals map[string]*Object
	std      *stdio

	steps    int64
	maxSteps int64
}

// stdio is a machine's standard I/O state: the buffered input, the
// stream handles, and the scratch bytes the stdio and string builtins
// reuse from call to call, so that a call allocates nothing once they
// have grown to its strings.
type stdio struct {
	in      tokenReader
	handles []*Object // one per stream name (its Name), made on first use
	// fmt holds a format string, buf a call's other bytes: a formatted
	// line, a token, a line that outgrew the input buffer, or the strings
	// a string builtin reads.
	fmt, buf []byte
}

// stdio returns the machine's stdio state, creating it on the first call.
func (m *Machine) stdio() *stdio {
	if m.std == nil {
		m.std = &stdio{in: tokenReader{src: m.stdin}}
	}
	return m.std
}

// New builds a machine for prog. The program must have passed minic.Check.
func New(prog *minic.Program, opts Options) *Machine {
	m := &Machine{
		Prog:       prog,
		stdin:      opts.Stdin,
		stdout:     opts.Stdout,
		cost:       opts.Cost,
		intrinsics: opts.Intrinsics,
		space:      opts.DefaultSpace,
		spaceFor:   opts.SpaceFor,
		maxSteps:   opts.MaxSteps,
	}
	if m.cost == nil {
		m.cost = NopSink{}
	}
	if m.maxSteps == 0 {
		m.maxSteps = 2_000_000_000
	}
	return m
}

// builtin looks a builtin implementation up by name: an intrinsic first,
// so intrinsics override the standard library, then the standard library.
func (m *Machine) builtin(name string) (Builtin, bool) {
	if impl, ok := m.intrinsics[name]; ok {
		return impl, true
	}
	impl, ok := stdlib[name]
	return impl, ok
}

// Steps reports statements executed so far.
func (m *Machine) Steps() int64 { return m.steps }

func (m *Machine) spaceOf(sym *minic.Symbol) MemSpace {
	if m.spaceFor != nil {
		return m.spaceFor(sym)
	}
	return m.space
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

// ApplyUnary applies -, ! or ~ with the interpreter's exact semantics.
func ApplyUnary(op string, v Value) (Value, error) {
	switch op {
	case "-":
		if v.Kind == ValFloat {
			return FloatVal(-v.F()), nil
		}
		return IntVal(-v.AsInt()), nil
	case "!":
		return boolVal(!v.Truthy()), nil
	case "~":
		return IntVal(^v.AsInt()), nil
	}
	return Value{}, fmt.Errorf("interp: unhandled unary %q", op)
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

// stdioHandle returns a stable opaque object for a stdio stream name.
func (m *Machine) stdioHandle(name string) *Object {
	s := m.stdio()
	for _, h := range s.handles {
		if h.Name == name {
			return h
		}
	}
	obj := NewObject(name, minic.CharType, 1, m.space)
	s.handles = append(s.handles, obj)
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
	if m.literals == nil {
		m.literals = map[string]*Object{}
	}
	m.literals[s] = obj
	return obj
}

// ReadCString reads a NUL-terminated string starting at p. A pointer
// before its object reads as the empty string, like one past its end.
func ReadCString(p Pointer) string { return string(appendCString(nil, p)) }

// appendCString appends the NUL-terminated string at p to b, as
// ReadCString reads it.
func appendCString(b []byte, p Pointer) []byte {
	if p.IsNull() || p.Off < 0 {
		return b
	}
	for i := p.Off; i < len(p.Obj.Cells); i++ {
		c := byte(p.Obj.Cells[i].AsInt())
		if c == 0 {
			break
		}
		b = append(b, c)
	}
	return b
}

// cstrlen counts the bytes of the NUL-terminated string at p, as
// ReadCString reads it.
func cstrlen(p Pointer) int {
	if p.IsNull() || p.Off < 0 {
		return 0
	}
	n := 0
	for i := p.Off; i < len(p.Obj.Cells) && byte(p.Obj.Cells[i].AsInt()) != 0; i++ {
		n++
	}
	return n
}

// WriteCString writes s plus a NUL terminator at p. It reports the number
// of bytes written (excluding the NUL) and fails silently by truncation if
// the object is too small, like a C buffer overflow would be UB — here we
// clamp instead (a pointer before its object writes nothing).
func WriteCString(p Pointer, s string) int { return writeC(p, s) }

// writeC is WriteCString for a string or a byte slice.
func writeC[S string | []byte](p Pointer, s S) int {
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
