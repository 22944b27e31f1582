package analysis

import (
	"fmt"

	"repro/internal/minic"
)

// This file implements the GPU-safety pass (HD401..HD403). Unlike the
// source-level passes it inspects the *translated* kernel: the region after
// stdio rewriting, together with the memory-space placement the translator
// computed with Algorithm 1. The compiler package adapts its KernelSpec
// into a Kernel; hdlint gets these checks through compiler.Lint.

// MemSpace is the GPU memory space a kernel variable was placed in
// (mirrors the translator's variable classification).
type MemSpace int

// Memory spaces.
const (
	// SpaceLocal is a variable declared inside the region (per-thread).
	SpaceLocal MemSpace = iota
	// SpacePrivate is a written-first region variable (per-thread copy).
	SpacePrivate
	// SpaceFirstPrivate is a read-first variable copied in per thread.
	SpaceFirstPrivate
	// SpaceConstScalar is a read-only scalar in constant memory.
	SpaceConstScalar
	// SpaceGlobalRO is a read-only array in global memory.
	SpaceGlobalRO
	// SpaceTexture is a texture-fetched read-only array.
	SpaceTexture
)

func (m MemSpace) String() string {
	switch m {
	case SpaceLocal:
		return "local"
	case SpacePrivate:
		return "private"
	case SpaceFirstPrivate:
		return "firstprivate"
	case SpaceConstScalar:
		return "constant"
	case SpaceGlobalRO:
		return "global read-only"
	case SpaceTexture:
		return "texture"
	default:
		return "?"
	}
}

// Kernel is the analyzable view of one translated directive region.
type Kernel struct {
	File string
	// Combiner distinguishes combiner kernels from mapper kernels.
	Combiner bool
	// Region is the rewritten region statement (GPU intrinsics in place).
	Region minic.Stmt
	// Spaces is the translator's placement plan for region variables.
	Spaces map[*minic.Symbol]MemSpace
	// ClauseRO names variables declared read-only by directive clauses;
	// writes to those are already reported at source level (HD302), so the
	// kernel pass skips them.
	ClauseRO map[string]bool
}

// warpSyncCalls are runtime intrinsics executed cooperatively by a warp:
// every thread of the warp must reach them together (paper §3.4 processes
// one record per warp thread in lock step).
var warpSyncCalls = map[string]bool{"getRecord": true, "getKV": true}

// AnalyzeKernel runs the GPU-safety checks over one translated kernel.
func AnalyzeKernel(k *Kernel) []Diagnostic {
	a := &analyzer{file: k.File}
	a.checkWarpSync(k)
	a.checkSharedWrites(k)
	a.checkStaticBounds(k)
	Sort(a.diags)
	return a.diags
}

// checkWarpSync reports HD401 for warp-synchronous intrinsics that appear
// anywhere but the condition of a top-level region loop. Nested under
// divergent control flow, part of a warp would skip the call and the
// cooperative read deadlocks (or reads garbage).
func (a *analyzer) checkWarpSync(k *Kernel) {
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
	markTop(k.Region)
	minic.WalkExprs(k.Region, func(e minic.Expr) bool {
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
// semantics.
func (a *analyzer) checkSharedWrites(k *Kernel) {
	reported := map[*minic.Symbol]bool{}
	for _, ev := range regionEvents(k.Region) {
		if ev.sym == nil || reported[ev.sym] || k.ClauseRO[ev.sym.Name] {
			continue
		}
		space, ok := k.Spaces[ev.sym]
		if !ok || (space != SpaceConstScalar && space != SpaceGlobalRO && space != SpaceTexture) {
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
func (a *analyzer) checkStaticBounds(k *Kernel) {
	minic.WalkExprs(k.Region, func(e minic.Expr) bool {
		ix, ok := e.(*minic.Index)
		if !ok {
			return true
		}
		base := baseIdent(ix.X)
		if base == nil || base.Sym == nil {
			return true
		}
		space, tracked := k.Spaces[base.Sym]
		if !tracked || (space != SpaceGlobalRO && space != SpaceTexture && space != SpaceConstScalar) {
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
