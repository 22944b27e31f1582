package walker

import (
	"repro/internal/interp"
	"repro/internal/minic"
)

// Frame is an exported handle to one execution scope: EvalIn and ExecIn
// run an expression or a statement inside a frame that NewFrame and Bind
// build, as a kernel fragment runs against host-bound storage.
type Frame struct {
	f *frame
}

// NewFrame returns an empty frame.
func NewFrame() *Frame {
	return &Frame{f: &frame{vars: map[*minic.Symbol]*interp.Object{}}}
}

// Bind installs storage for sym in the frame.
func (fr *Frame) Bind(sym *minic.Symbol, obj *interp.Object) {
	fr.f.vars[sym] = obj
}

// Object returns the storage bound to sym, or nil.
func (fr *Frame) Object(sym *minic.Symbol) *interp.Object {
	return fr.f.vars[sym]
}

// EvalIn evaluates an expression within the frame, after the file-scope
// initializers (once).
func (w *Walker) EvalIn(fr *Frame, e minic.Expr) (interp.Value, error) {
	if err := w.initGlobals(); err != nil {
		return interp.Value{}, err
	}
	return w.eval(fr.f, e)
}

// ExecIn executes a statement within the frame, after the file-scope
// initializers (once). It reports terminated=true when the statement
// ended with a return (break/continue propagate as normal loop control
// and report false).
func (w *Walker) ExecIn(fr *Frame, s minic.Stmt) (terminated bool, err error) {
	if err := w.initGlobals(); err != nil {
		return false, err
	}
	c, err := w.execStmt(fr.f, s)
	if err != nil {
		return false, err
	}
	return c.kind == ctrlReturn, nil
}
