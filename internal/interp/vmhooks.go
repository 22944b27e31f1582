package interp

import (
	"errors"

	"repro/internal/minic"
)

// Hooks for the executors: the bytecode VM (package bytecode), and the
// reference walker its tests compare it against (package interp/walker).
// An executor runs code and keeps its globals' objects, but delegates all
// other state — object memory, string literals, the builtin table, cost
// charging, the step budget — to a Machine, so both share one runtime and
// produce identical observable behavior (output bytes, cost totals, step
// counts, error strings).

// Cost returns the active cost sink (for intrinsics that charge custom
// costs).
func (m *Machine) Cost() CostSink { return m.cost }

// AddSteps charges n statement steps against the step budget, returning
// ErrMaxSteps when the budget is exhausted. The VM batches the per-block
// statement charges the tree-walker pays one at a time.
func (m *Machine) AddSteps(n int64) error {
	m.steps += n
	if m.steps > m.maxSteps {
		return ErrMaxSteps
	}
	return nil
}

// SpaceOf returns the memory space a symbol's storage is placed in.
func (m *Machine) SpaceOf(sym *minic.Symbol) MemSpace { return m.spaceOf(sym) }

// DefaultSpace returns the memory space the machine allocates objects in
// (malloc, calloc, string literals).
func (m *Machine) DefaultSpace() MemSpace { return m.space }

// InternLiteral returns the shared object for a string literal.
func (m *Machine) InternLiteral(s string) *Object { return m.internLiteral(s) }

// Stdio returns the opaque handle object for a stdio stream name.
func (m *Machine) Stdio(name string) *Object { return m.stdioHandle(name) }

// BuiltinNamed looks up a builtin/intrinsic implementation.
func (m *Machine) BuiltinNamed(name string) (Builtin, bool) {
	return m.builtin(name)
}

// LoadPtr loads the cell at p with bounds checking and cost charging.
func (m *Machine) LoadPtr(p Pointer) (Value, error) { return m.load(p) }

// StorePtr stores v into the cell at p with bounds checking, cost
// charging, and conversion to the object's element type.
func (m *Machine) StorePtr(p Pointer, v Value) error { return m.store(p, v) }

// ExitStatus unwraps the control-flow error the exit() builtin raises,
// reporting the exit code and whether err was an exit.
func ExitStatus(err error) (int, bool) {
	var ex errExit
	if errors.As(err, &ex) {
		return ex.code, true
	}
	return 0, false
}

// ApplyBinary applies a binary operator with the interpreter's exact
// semantics (pointer arithmetic, float promotion, division-by-zero
// errors). The optimizer folds constants with it too: an error means the
// expression must be left to trap at run time.
func ApplyBinary(op string, l, r Value) (Value, error) { return applyBinary(op, l, r) }

// AddInt adds an integer delta to a value (used for ++/-- semantics:
// floats add, pointers advance, integers add without width truncation).
func AddInt(v Value, d int64) Value { return addInt(v, d) }

// ConvertFor converts v to the storage representation of type t. The
// optimizer folds casts and stores to scalar types with it.
func ConvertFor(t *minic.Type, v Value) Value { return convertFor(t, v) }

// FlattenArray reduces a possibly multi-dimensional array type to a total
// cell count and scalar element type.
func FlattenArray(t *minic.Type) (int, *minic.Type) { return flattenArray(t) }
