package analysis

import (
	"fmt"

	"repro/internal/minic"
)

// This file implements the IO-purity pass (HD501, HD502). A directive
// region runs on the GPU, so it may only call functions the translator can
// replace with runtime intrinsics (getline/printf/scanf, paper §3.3) or
// functions with device implementations (string.h/math.h subsets). Heap
// management and process control have no device equivalent.
//
// Called user functions are checked transitively: they are cloned into the
// kernel verbatim, so they may use only the pure subset — the stdio
// rewrites apply to the region body, not to callees.

// purityClass buckets every callable name.
type purityClass int

const (
	pureCall       purityClass = iota // legal anywhere in or under a region
	regionOnlyCall                    // legal in the region body, not in callees
	forbiddenCall                     // never legal on the GPU
)

// callPurity classifies the builtins. User-defined functions are handled
// separately (transitive scan).
var callPurity = map[string]purityClass{
	// Replaceable stdio (rewritten to getRecord/emitKV/getKV/storeKV).
	"getline": regionOnlyCall,
	"printf":  regionOnlyCall,
	"scanf":   regionOnlyCall,
	// Runtime intrinsics the rewriter itself inserts.
	"mapSetup": regionOnlyCall, "getRecord": regionOnlyCall,
	"emitKV": regionOnlyCall, "mapFinish": regionOnlyCall,
	"combineSetup": regionOnlyCall, "getKV": regionOnlyCall,
	"storeKV": regionOnlyCall,
	// Device-implementable string/ctype/stdlib subset.
	"strcmp": pureCall, "strncmp": pureCall, "strcpy": pureCall,
	"strncpy": pureCall, "strlen": pureCall, "strstr": pureCall,
	"strcat": pureCall, "memset": pureCall, "memcpy": pureCall,
	"atoi": pureCall, "atof": pureCall, "abs": pureCall,
	"isdigit": pureCall, "isalpha": pureCall, "isalnum": pureCall,
	"isspace": pureCall, "tolower": pureCall, "toupper": pureCall,
	"strcmpGPU": pureCall, "strcpyGPU": pureCall, "strlenGPU": pureCall,
	"__sizeof_var": pureCall,
	// Math intrinsics.
	"sqrt": pureCall, "fabs": pureCall, "exp": pureCall, "log": pureCall,
	"log2": pureCall, "pow": pureCall, "floor": pureCall, "ceil": pureCall,
	"fmin": pureCall, "fmax": pureCall, "erf": pureCall,
	"sin": pureCall, "cos": pureCall,
	// No device equivalent.
	"malloc": forbiddenCall, "calloc": forbiddenCall, "free": forbiddenCall,
	"exit": forbiddenCall, "getchar": forbiddenCall, "putchar": forbiddenCall,
}

func (a *analyzer) ioPurityPass(r *regionInfo) {
	checkedFns := map[string]bool{}
	minic.WalkExprs(r.pragma.Body, func(e minic.Expr) bool {
		c, ok := e.(*minic.Call)
		if !ok {
			return true
		}
		if cls, known := callPurity[c.Name]; known {
			if cls == forbiddenCall {
				a.report("HD501", c.Pos,
					fmt.Sprintf("call to %q inside a %s region is not GPU-replaceable", c.Name, r.kindName()),
					"move the call outside the directive region")
			}
			return true
		}
		fn := a.prog.Func(c.Name)
		if fn == nil {
			return true // sema already rejected unknown callees
		}
		if checkedFns[c.Name] {
			return true
		}
		checkedFns[c.Name] = true
		if name, callee, ok := a.findImpureCall(fn, map[string]bool{c.Name: true}); ok {
			a.report("HD502", c.Pos,
				fmt.Sprintf("function %q called from the %s region calls %q, which cannot run on the GPU", name, r.kindName(), callee),
				"inline replaceable IO into the region body or drop the call")
		}
		return true
	})
}

// findImpureCall scans fn's body (and its callees, cycle-safe) for a call
// that is not in the pure subset. It returns the offending function and
// callee names. Region-only calls (stdio) count as impure here: the
// translator rewrites the region body only.
func (a *analyzer) findImpureCall(fn *minic.FuncDecl, visiting map[string]bool) (string, string, bool) {
	var badFn, badCallee string
	minic.WalkExprs(fn.Body, func(e minic.Expr) bool {
		if badCallee != "" {
			return false
		}
		c, ok := e.(*minic.Call)
		if !ok {
			return true
		}
		if cls, known := callPurity[c.Name]; known {
			if cls != pureCall {
				badFn, badCallee = fn.Name, c.Name
			}
			return true
		}
		callee := a.prog.Func(c.Name)
		if callee == nil || visiting[c.Name] {
			return true
		}
		visiting[c.Name] = true
		if f, cn, ok := a.findImpureCall(callee, visiting); ok {
			badFn, badCallee = f, cn
		}
		return true
	})
	return badFn, badCallee, badCallee != ""
}
