package analysis

import (
	"fmt"

	"repro/internal/compiler"
	"repro/internal/minic"
)

// This file implements the GPU-safety pass (HD401..HD403). Unlike the
// source-level passes it inspects the translator's output: the region
// after stdio rewriting, together with the memory-space placement the
// translator computed with Algorithm 1 (compiler.KernelSpec.Plan).

// sharedSpaces names the placements all threads of a kernel share
// read-only, as HD402 and HD403 print them.
var sharedSpaces = map[compiler.VarClass]string{
	compiler.ClassROScalar: "constant",
	compiler.ClassROArray:  "global read-only",
	compiler.ClassTexture:  "texture",
}

// warpSyncCalls are runtime intrinsics executed cooperatively by a warp:
// every thread of the warp must reach them together (paper §3.4 processes
// one record per warp thread in lock step).
var warpSyncCalls = map[string]bool{"getRecord": true, "getKV": true}

// AnalyzeKernel runs the GPU-safety checks over one translated kernel.
func AnalyzeKernel(spec *compiler.KernelSpec) []Diagnostic {
	a := &analyzer{file: spec.Prog.File}
	a.checkWarpSync(spec.Region)
	a.checkSharedWrites(spec)
	a.checkStaticBounds(spec)
	Sort(a.diags)
	return a.diags
}

// checkWarpSync reports HD401 for warp-synchronous intrinsics that appear
// anywhere but the condition of a top-level region loop. Nested under
// divergent control flow, part of a warp would skip the call and the
// cooperative read deadlocks (or reads garbage).
func (a *analyzer) checkWarpSync(region minic.Stmt) {
	legal := map[*minic.Call]bool{}
	var markTop func(s minic.Stmt)
	markTop = func(s minic.Stmt) {
		switch st := s.(type) {
		case *minic.Block:
			for _, inner := range st.Stmts {
				markTop(inner)
			}
		case *minic.PragmaStmt:
			markTop(st.Body)
		case *minic.While:
			minic.Inspect(st.Cond, func(e minic.Expr) bool {
				if c, ok := e.(*minic.Call); ok {
					legal[c] = true
				}
				return true
			})
		}
	}
	markTop(region)
	minic.WalkExprs(region, func(e minic.Expr) bool {
		if c, ok := e.(*minic.Call); ok && warpSyncCalls[c.Name] && !legal[c] {
			a.report("HD401", c.Pos,
				fmt.Sprintf("warp-synchronous %q is called under thread-divergent control flow", c.Name),
				"hoist the record read into the region's outermost loop condition")
		}
		return true
	})
}

// checkSharedWrites reports HD402 when the kernel writes a variable the
// translator placed in a read-only shared space (constant, global
// read-only, texture): every thread would race on the same location, and
// the read-only placement means the write silently has no host-visible
// semantics. Writes to variables a sharedRO or texture clause names are
// reported at source level (HD302), so this pass skips them.
func (a *analyzer) checkSharedWrites(spec *compiler.KernelSpec) {
	d := spec.Directive
	reported := map[*minic.Symbol]bool{}
	for _, ev := range regionEvents(spec.Region) {
		if ev.sym == nil || reported[ev.sym] || contains(d.SharedRO, ev.sym.Name) || contains(d.Texture, ev.sym.Name) {
			continue
		}
		space, ok := sharedSpaces[spec.Plan[ev.sym]]
		if !ok {
			continue
		}
		switch ev.kind {
		case evWrite, evElemWrite, evAddr:
			a.report("HD402", ev.pos,
				fmt.Sprintf("kernel writes %q, which the translator placed in %s memory shared by all threads", ev.sym.Name, space),
				"make the write per-thread (declare the variable in the region) or emit the result as a key/value pair")
			reported[ev.sym] = true
		}
	}
}

// checkStaticBounds reports HD403 for constant-foldable indices that fall
// outside the declared bounds of a constant/texture/global read-only
// array. Out-of-bounds texture fetches clamp silently on the device, so
// the bug is invisible at runtime.
func (a *analyzer) checkStaticBounds(spec *compiler.KernelSpec) {
	minic.WalkExprs(spec.Region, func(e minic.Expr) bool {
		ix, ok := e.(*minic.Index)
		if !ok {
			return true
		}
		base := baseIdent(ix.X)
		if base == nil || base.Sym == nil {
			return true
		}
		space, shared := sharedSpaces[spec.Plan[base.Sym]]
		if !shared {
			return true
		}
		t := base.Sym.Type
		if t == nil || t.Kind != minic.TypeArray || t.Len <= 0 {
			return true
		}
		v, constIdx := constIntValue(ix.Idx)
		if !constIdx {
			return true
		}
		if v < 0 || v >= int64(t.Len) {
			a.report("HD403", ix.Pos,
				fmt.Sprintf("index %d is out of bounds for %q (%s memory, length %d)", v, base.Sym.Name, space, t.Len),
				"fix the index or the array's declared length")
		}
		return true
	})
}
