package analysis

import (
	"fmt"

	"repro/internal/ir"
	"repro/internal/minic"
)

// This file implements the dataflow pass (HD201..HD204): a forward
// maybe-uninitialized analysis and a backward liveness analysis over the
// CFG that ir lowers the function to, the same graph the HD6xx facts come
// from, plus a simple unused-variable scan. Both fixpoints run on the
// shared gen/kill solver (ir.SolveGenKill): the access events of each
// block's statement-level nodes (ir.Block.Nodes) compose into one gen/kill
// pair, and a replay over the solved block inputs produces the reports. Only
// function-local scalars and pointers are tracked; arrays are exempt from
// initialization checks (element state is not modeled), and address escapes
// (&x, array decay into calls) conservatively count as both a use and a
// definition.

// symDecl records where a tracked local was declared, in source order.
type symDecl struct {
	sym *minic.Symbol
	pos minic.Pos
}

func (a *analyzer) dataflowPass(f *ir.Func) {
	events := make([][]event, len(f.Blocks))
	for i, b := range f.Blocks {
		for _, n := range b.Nodes {
			events[i] = append(events[i], nodeEvents(n)...)
		}
	}

	decls := localDecls(f.Decl)
	tracked := map[*minic.Symbol]bool{}
	for _, d := range decls {
		tracked[d.sym] = true
	}

	// Usage scan: a variable with no reads, writes, or escapes anywhere is
	// simply unused (HD203); it is then excluded from the store-level
	// checks so one root cause yields one diagnostic.
	referenced := map[*minic.Symbol]bool{}
	for _, evs := range events {
		for _, ev := range evs {
			if ev.kind != evDeclUninit {
				referenced[ev.sym] = true
			}
		}
	}
	unused := map[*minic.Symbol]bool{}
	for _, d := range decls {
		if !referenced[d.sym] {
			unused[d.sym] = true
			a.report("HD203", d.pos,
				fmt.Sprintf("variable %q is declared but never used", d.sym.Name),
				"remove the declaration")
		}
	}

	fl := newFlowLattice(ir.BlockGraph(f), events)
	a.checkUninit(fl, tracked, unused)
	a.checkDeadStores(fl, tracked, unused)
}

// localDecls returns fn's local variable declarations in source order.
func localDecls(fn *minic.FuncDecl) []symDecl {
	var out []symDecl
	minic.WalkStmts(fn.Body, func(s minic.Stmt) {
		ds, ok := s.(*minic.DeclStmt)
		if !ok {
			return
		}
		for _, d := range ds.Decls {
			if d.Sym != nil && d.Sym.Kind == minic.SymVar && !d.Sym.Global {
				out = append(out, symDecl{sym: d.Sym, pos: ds.Pos})
			}
		}
	})
	return out
}

// flowLattice pairs the block graph with each block's events and numbers
// every symbol the events touch, so both HD2xx fixpoints share one
// bit-index space.
type flowLattice struct {
	events [][]event
	g      ir.Graph
	idx    map[*minic.Symbol]int
	n      int
}

func newFlowLattice(g ir.Graph, events [][]event) *flowLattice {
	fl := &flowLattice{events: events, g: g, idx: map[*minic.Symbol]int{}}
	for _, evs := range events {
		for _, ev := range evs {
			if _, ok := fl.idx[ev.sym]; !ok {
				fl.idx[ev.sym] = fl.n
				fl.n++
			}
		}
	}
	return fl
}

// checkUninit runs forward maybe-uninitialized analysis (union merge) and
// reports HD201 at the first read of a possibly-uninitialized scalar.
// Gen/kill composition of one block's ordered events: an uninitialized
// declaration gens the fact, any write or address escape kills it.
func (a *analyzer) checkUninit(fl *flowLattice, tracked, unused map[*minic.Symbol]bool) {
	in, _ := ir.SolveGenKill(fl.g, ir.Forward, fl.n, func(i int) ir.GenKill { return fl.uninitGK(i) })

	// Reporting replay over the solved block inputs: first read position
	// per symbol while applying the same event transfer in order.
	firstRead := map[*minic.Symbol]minic.Pos{}
	for i := range fl.events {
		s := in[i].Copy()
		for _, ev := range fl.events[i] {
			bit := fl.idx[ev.sym]
			switch ev.kind {
			case evDeclUninit:
				s.Set(bit)
			case evWrite, evAddr:
				s.Clear(bit)
			case evRead:
				if s.Get(bit) && tracked[ev.sym] && !unused[ev.sym] {
					if prev, ok := firstRead[ev.sym]; !ok || before(ev.pos, prev) {
						firstRead[ev.sym] = ev.pos
					}
				}
			}
		}
	}
	for _, sym := range sortedSyms(firstRead) {
		a.report("HD201", firstRead[sym],
			fmt.Sprintf("variable %q may be used before initialization", sym.Name),
			"initialize the variable at its declaration")
	}
}

func (fl *flowLattice) uninitGK(i int) ir.GenKill {
	gen, kill := ir.NewBits(fl.n), ir.NewBits(fl.n)
	for _, ev := range fl.events[i] {
		bit := fl.idx[ev.sym]
		switch ev.kind {
		case evDeclUninit:
			gen.Set(bit)
			kill.Clear(bit)
		case evWrite, evAddr:
			kill.Set(bit)
			gen.Clear(bit)
		}
	}
	return ir.GenKill{Gen: gen, Kill: kill}
}

// checkDeadStores runs backward liveness and reports plain stores whose
// value is never read: HD202 for computed stores, HD204 (info) for constant
// defensive initializations that are overwritten before use. Composition is
// over the block's events in reverse: a read (or escape, or element write)
// gens liveness, a whole-variable write or uninitialized declaration kills
// it.
func (a *analyzer) checkDeadStores(fl *flowLattice, tracked, unused map[*minic.Symbol]bool) {
	// For Backward problems the solver's IN is the meet over successors'
	// OUT — the value at the block's exit, i.e. liveOut.
	liveOut, _ := ir.SolveGenKill(fl.g, ir.Backward, fl.n, func(i int) ir.GenKill { return fl.liveGK(i) })

	type deadStore struct {
		pos      minic.Pos
		sym      *minic.Symbol
		constRHS bool
	}
	var dead []deadStore
	for i := range fl.events {
		s := liveOut[i].Copy()
		evs := fl.events[i]
		for j := len(evs) - 1; j >= 0; j-- {
			ev := evs[j]
			bit := fl.idx[ev.sym]
			switch ev.kind {
			case evWrite:
				if ev.plainStore && tracked[ev.sym] && !unused[ev.sym] && !s.Get(bit) {
					dead = append(dead, deadStore{pos: ev.pos, sym: ev.sym, constRHS: ev.constRHS})
				}
				s.Clear(bit)
			case evRead, evAddr, evElemWrite:
				s.Set(bit)
			case evDeclUninit:
				s.Clear(bit)
			}
		}
	}
	for _, d := range dead {
		if d.constRHS {
			a.report("HD204", d.pos,
				fmt.Sprintf("redundant initialization of %q: the constant is overwritten before any use", d.sym.Name),
				"drop the initialization (kept stores cost GPU registers)")
		} else {
			a.report("HD202", d.pos,
				fmt.Sprintf("dead store to %q: the assigned value is never used", d.sym.Name),
				"remove the assignment or use the value")
		}
	}
}

func (fl *flowLattice) liveGK(i int) ir.GenKill {
	gen, kill := ir.NewBits(fl.n), ir.NewBits(fl.n)
	evs := fl.events[i]
	for j := len(evs) - 1; j >= 0; j-- {
		ev := evs[j]
		bit := fl.idx[ev.sym]
		switch ev.kind {
		case evWrite, evDeclUninit:
			kill.Set(bit)
			gen.Clear(bit)
		case evRead, evAddr, evElemWrite:
			gen.Set(bit)
			kill.Clear(bit)
		}
	}
	return ir.GenKill{Gen: gen, Kill: kill}
}

func before(a, b minic.Pos) bool {
	if a.Line != b.Line {
		return a.Line < b.Line
	}
	return a.Col < b.Col
}

// sortedSyms orders a position map's keys by position for deterministic
// reports.
func sortedSyms(m map[*minic.Symbol]minic.Pos) []*minic.Symbol {
	out := make([]*minic.Symbol, 0, len(m))
	for sym := range m {
		out = append(out, sym)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && before(m[out[j]], m[out[j-1]]); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
