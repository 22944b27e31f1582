package analysis

// This file implements the optimization-fact pass (HD601..HD605). It reads
// the same SSA/SCCP facts the optimizer acts on (package ir), so the
// diagnostics and the rewrites can never disagree about what is constant
// or unreachable. The optimizer folds the trap-free conditions HD601
// reports and hoists invariants, but it leaves HD602's unreachable
// statements and HD603's repeated computations to the programmer. The pass never mutates the
// program: ir's AnalyzeFunc lowers a private CFG+SSA view.
//
//	HD601  a non-literal branch condition is provably constant
//	HD602  a statement is provably unreachable
//	HD603  an expression recomputes a value available on every path
//	HD604  a loop emits the same key/value pair every iteration
//	HD605  a constant subscript is provably outside a fixed-length array
//
// HD601..HD604 are info-level optimizer notes; HD605 is an error: it is the
// source-level generalization of HD403 (which only sees constant/texture
// arrays inside translated kernels) and traps at runtime on every backend.

import (
	"fmt"

	"repro/internal/ir"
	"repro/internal/minic"
)

// hd403Owned collects subscripts the kernel-side HD403 pass owns: indexes
// into sharedRO/texture-clause arrays inside a directive region. HD605 skips
// them so one defect maps to one code.
func (a *analyzer) hd403Owned(regions []*regionInfo) map[*minic.Index]bool {
	owned := map[*minic.Index]bool{}
	for _, r := range regions {
		ro := map[string]bool{}
		for _, n := range r.sharedRO {
			ro[n] = true
		}
		for _, n := range r.texture {
			ro[n] = true
		}
		if len(ro) == 0 {
			continue
		}
		minic.WalkExprs(r.pragma.Body, func(e minic.Expr) bool {
			if ix, ok := e.(*minic.Index); ok {
				if base, ok := ix.X.(*minic.Ident); ok && ro[base.Name] {
					owned[ix] = true
				}
			}
			return true
		})
	}
	return owned
}

// optPass runs the HD6xx optimization-fact lints over one function.
func (a *analyzer) optPass(fx *ir.Facts) {
	for _, cc := range fx.ConstConds {
		truth := "false: the guarded code never runs"
		if cc.Value.Truthy() {
			truth = "true: the branch always takes the same path"
		}
		a.report("HD601", minic.NodePos(cc.Cond),
			fmt.Sprintf("condition is provably %s", truth),
			"simplify the condition or delete the branch")
	}
	for _, s := range fx.Unreachable {
		a.report("HD602", minic.NodePos(s),
			"statement is provably unreachable",
			"delete the dead code or fix the guarding condition")
	}
	for _, rp := range fx.Redundant {
		a.report("HD603", minic.NodePos(rp.Second),
			fmt.Sprintf("expression recomputes the value already computed at line %d",
				minic.NodePos(rp.First).Line),
			"store the first result in a variable and reuse it")
	}
	for _, call := range ir.LoopInvariantEmits(fx.Fn) {
		a.report("HD604", minic.NodePos(call),
			fmt.Sprintf("%s emits values that never change across loop iterations", call.Name),
			"hoist the emission out of the loop or make an argument loop-dependent")
	}
	for _, oob := range fx.OOB {
		if a.oobOwned[oob.Expr] {
			continue // HD403 reports constant/texture kernel arrays
		}
		a.report("HD605", minic.NodePos(oob.Expr),
			fmt.Sprintf("index %d is out of range for %q (length %d)",
				oob.Index, oob.Name, oob.Len),
			"fix the index or the array length")
	}
}
