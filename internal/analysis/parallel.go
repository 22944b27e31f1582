package analysis

import (
	"fmt"

	"repro/internal/minic"
)

// This file implements the parallel-legality pass (HD301, HD302).
//
// The translator's Algorithm 1 privatizes region variables by first access:
// written-first variables become per-thread Private copies, read-first ones
// FirstPrivate. A variable that is read first AND written in a mapper
// region carries its value between loop iterations — privatization silently
// changes program semantics because GPU threads process records in
// parallel. Combiners are exempt: carrying state across the sorted input
// stream is exactly what a combiner does, and the directive's firstprivate
// clause asserts it.

func (a *analyzer) parallelPass(r *regionInfo) {
	events := regionEvents(r.pragma.Body)
	a.checkLoopCarried(r, events)
	a.checkReadOnlyWrites(r, events)
}

// regionEvents flattens the region's access events in (first-iteration)
// execution order: loop conditions precede bodies, for-posts follow them.
func regionEvents(s minic.Stmt) []event {
	var out []event
	var walk func(minic.Stmt)
	walk = func(s minic.Stmt) {
		switch st := s.(type) {
		case nil:
		case *minic.Block:
			for _, inner := range st.Stmts {
				walk(inner)
			}
		case *minic.PragmaStmt:
			walk(st.Body)
		case *minic.If:
			out = append(out, nodeEvents(st.Cond)...)
			walk(st.Then)
			walk(st.Else)
		case *minic.While:
			out = append(out, nodeEvents(st.Cond)...)
			walk(st.Body)
		case *minic.For:
			walk(st.Init)
			if st.Cond != nil {
				out = append(out, nodeEvents(st.Cond)...)
			}
			walk(st.Body)
			if st.Post != nil {
				out = append(out, nodeEvents(st.Post)...)
			}
		default:
			out = append(out, nodeEvents(s)...)
		}
	}
	walk(s)
	return out
}

// checkLoopCarried reports HD301 for mapper-region variables whose first
// access is a read and which the region also writes.
func (a *analyzer) checkLoopCarried(r *regionInfo, events []event) {
	if r.combiner {
		return
	}
	regionLocal := map[*minic.Symbol]bool{}
	minic.WalkStmts(r.pragma.Body, func(s minic.Stmt) {
		if ds, ok := s.(*minic.DeclStmt); ok {
			for _, d := range ds.Decls {
				regionLocal[d.Sym] = true
			}
		}
	})
	type symState struct {
		firstRead    bool
		firstReadPos minic.Pos
		written      bool
		seen         bool
	}
	states := map[*minic.Symbol]*symState{}
	var order []*minic.Symbol
	for _, ev := range events {
		sym := ev.sym
		if sym == nil || sym.Kind != minic.SymVar || sym.Global || regionLocal[sym] {
			continue
		}
		if r.inFirstPrivate(sym.Name) || r.inReadOnlyClause(sym.Name) {
			continue
		}
		st := states[sym]
		if st == nil {
			st = &symState{}
			states[sym] = st
			order = append(order, sym)
		}
		switch ev.kind {
		case evRead:
			if !st.seen {
				st.firstRead = true
				st.firstReadPos = ev.pos
			}
		case evWrite, evElemWrite, evAddr:
			// evAddr may write through the callee; treating it as a write
			// for ordering matches the translator's write-first rule.
			st.written = true
		}
		st.seen = true
	}
	for _, sym := range order {
		st := states[sym]
		if st.firstRead && st.written {
			a.report("HD301", st.firstReadPos,
				fmt.Sprintf("mapper region reads %q before writing it: the value is carried between loop iterations, which per-thread privatization discards", sym.Name),
				"initialize the variable inside the region, or list it in firstprivate() if the carried value is intended")
		}
	}
}

// checkReadOnlyWrites reports HD302 for writes to variables the directive
// itself declares read-only via sharedRO()/texture().
func (a *analyzer) checkReadOnlyWrites(r *regionInfo, events []event) {
	reported := map[*minic.Symbol]bool{}
	for _, ev := range events {
		if ev.sym == nil || reported[ev.sym] || !r.inReadOnlyClause(ev.sym.Name) {
			continue
		}
		switch ev.kind {
		case evWrite, evElemWrite, evAddr:
			clause := "sharedRO"
			if contains(r.texture, ev.sym.Name) {
				clause = "texture"
			}
			verb := "writes"
			if ev.kind == evAddr {
				verb = "may write through"
			}
			a.report("HD302", ev.pos,
				fmt.Sprintf("region %s %q, which the directive declares read-only via %s()", verb, ev.sym.Name, clause),
				"drop the clause or remove the write; read-only placement maps the variable to constant/texture memory")
			reported[ev.sym] = true
		}
	}
}
