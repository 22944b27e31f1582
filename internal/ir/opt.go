package ir

import (
	"fmt"
	"sort"

	"repro/internal/interp"
	"repro/internal/minic"
)

// Stats reports what the optimizer did to one program.
type Stats struct {
	Funcs  int
	Rounds int
	Folded int // expressions replaced by literals
	Stores int // dead assignments removed
	Inits  int // dead declaration initializers removed
	LICM   int // loop-invariant expressions hoisted

	NodesBefore int
	NodesAfter  int
}

// Changed reports whether any rewrite was applied.
func (st *Stats) Changed() bool {
	return st.Folded+st.Stores+st.Inits+st.LICM > 0
}

// Add accumulates other into st (per-pass counters and rounds; node counts
// are left to the caller).
func (st *Stats) Add(o *Stats) {
	st.Funcs += o.Funcs
	st.Rounds += o.Rounds
	st.Folded += o.Folded
	st.Stores += o.Stores
	st.Inits += o.Inits
	st.LICM += o.LICM
}

func (st *Stats) String() string {
	return fmt.Sprintf("fold=%d dse=%d deadinit=%d licm=%d nodes=%d->%d",
		st.Folded, st.Stores, st.Inits, st.LICM, st.NodesBefore, st.NodesAfter)
}

// maxRounds bounds the fold→DSE→LICM rounds per function; each round only
// runs if the previous one changed something.
const maxRounds = 3

// Pass selects optimizer passes for OptimizeSelected. OptimizeProgram
// runs AllPasses; partial masks exist for the per-pass cost table of
// hdbench -opt-report, not as a user-facing -O level.
type Pass uint

const (
	PassFold Pass = 1 << iota // SCCP constant folding
	PassDSE                   // dead stores and dead declaration initializers
	PassLICM                  // loop-invariant code motion

	AllPasses = PassFold | PassDSE | PassLICM
)

// OptimizeProgram rewrites prog in place: constant folding driven by SCCP,
// dead-store and dead-init elimination, and loop-invariant code motion.
// Every rewrite preserves internal/interp semantics exactly (including
// trap behavior and evaluation order of side effects); only the
// interpreter's per-node cost shrinks.
func OptimizeProgram(prog *minic.Program) *Stats {
	return OptimizeSelected(prog, AllPasses)
}

// OptimizeSelected is OptimizeProgram restricted to the given pass mask.
func OptimizeSelected(prog *minic.Program, passes Pass) *Stats {
	st := &Stats{}
	st.NodesBefore = CountNodes(prog)
	temp := 0
	for _, fn := range prog.Funcs {
		if fn.Body == nil {
			continue
		}
		st.Funcs++
		optimizeFunc(fn, st, &temp, passes)
	}
	st.NodesAfter = CountNodes(prog)
	return st
}

func optimizeFunc(fn *minic.FuncDecl, st *Stats, temp *int, passes Pass) {
	o := &optimizer{fn: fn, st: st, temp: temp, stale: true}
	for round := 0; round < maxRounds; round++ {
		st.Rounds++
		n := 0
		if passes&PassFold != 0 {
			n += o.rewrote(o.foldPass())
		}
		if passes&PassDSE != 0 {
			n += o.rewrote(o.dsePass())
		}
		if passes&PassLICM != 0 {
			n += o.rewrote(o.licmPass())
		}
		if n == 0 {
			return
		}
	}
}

// optimizer carries one function through every round of SCCP folding,
// DSE and LICM. f (with its rewrite index) and s describe the AST as the
// last build saw it. Each pass builds once, before it rewrites anything,
// and only when an earlier pass has reported a rewrite. A pass that
// returns 0 must leave the AST untouched, so the passes after it can keep
// reading them.
type optimizer struct {
	fn    *minic.FuncDecl
	f     *Func
	s     *SCCP
	stale bool // a pass has rewritten the AST since f was built
	st    *Stats
	temp  *int
}

// build brings f up to date with the AST, and s too when sccp is set.
// SCCP runs at most once per lowering, for the first pass that needs it.
func (o *optimizer) build(sccp bool) {
	if o.stale {
		o.f, o.s = Build(o.fn), nil
		o.stale = false
	}
	if sccp && o.s == nil {
		o.s = Run(o.f)
	}
}

// rewrote passes a pass's rewrite count through, marking f and s stale
// when the pass changed the AST.
func (o *optimizer) rewrote(n int) int {
	if n > 0 {
		o.stale = true
	}
	return n
}

// constOfExpr returns the proven constant value of e, requiring its
// instruction to sit in reachable code.
func (o *optimizer) constOfExpr(e minic.Expr) (interp.Value, bool) {
	in := o.f.Exprs[e].Instr
	if in == nil || in.Block == nil || !o.s.Reachable(in.Block) {
		return interp.Value{}, false
	}
	return o.s.ConstOf(in)
}

// litConst reads a literal's value directly (for conditions already folded
// in an earlier round).
func litConst(e minic.Expr) (interp.Value, bool) {
	switch x := e.(type) {
	case *minic.IntLit:
		return interp.IntVal(x.Value), true
	case *minic.CharLit:
		return interp.IntVal(int64(x.Value)), true
	case *minic.FloatLit:
		return interp.FloatVal(x.Value), true
	}
	return interp.Value{}, false
}

func (o *optimizer) condConst(e minic.Expr) (interp.Value, bool) {
	if c, ok := litConst(e); ok {
		return c, true
	}
	return o.constOfExpr(e)
}

// execFree reports whether evaluating e has no side effects and cannot
// trap: no assignments, increments, function calls (other than pure
// builtins), memory loads through indices or pointers, no division
// whose divisor is not provably nonzero, and no operator its operands'
// kinds may make fail. Such expressions may be deleted or evaluated fewer
// times without observable difference.
func (o *optimizer) execFree(e minic.Expr) bool {
	switch x := e.(type) {
	case *minic.IntLit, *minic.FloatLit, *minic.CharLit, *minic.StrLit, *minic.SizeofType, *minic.Ident:
		return true
	case *minic.Unary:
		switch x.Op {
		case "-", "!", "~":
			return o.execFree(x.X)
		case "&":
			// &ident is trap-free; &a[i] evaluates and bounds-uses i later,
			// and *p can trap — keep both.
			_, ok := x.X.(*minic.Ident)
			return ok
		}
		return false
	case *minic.Binary:
		switch x.Op {
		case "&&", "||":
			if c, ok := o.condConst(x.L); ok {
				if (x.Op == "&&" && !c.Truthy()) || (x.Op == "||" && c.Truthy()) {
					// Right side provably never evaluates.
					return o.execFree(x.L)
				}
			}
			return o.execFree(x.L) && o.execFree(x.R)
		case "/", "%":
			c, ok := o.condConst(x.R)
			if !ok || !c.Truthy() {
				return false
			}
		}
		return !operandsMayTrap(x) && o.execFree(x.L) && o.execFree(x.R)
	case *minic.Cond:
		if c, ok := o.condConst(x.C); ok && o.execFree(x.C) {
			if c.Truthy() {
				return o.execFree(x.T)
			}
			return o.execFree(x.F)
		}
		return o.execFree(x.C) && o.execFree(x.T) && o.execFree(x.F)
	case *minic.Call:
		if x.Name == "__sizeof_var" {
			return true // argument is not evaluated
		}
		if !pureCall(x) {
			return false
		}
		for _, a := range x.Args {
			if !o.execFree(a) {
				return false
			}
		}
		return true
	case *minic.Cast:
		return o.execFree(x.X)
	}
	return false
}

// operandsMayTrap reports whether interp.ApplyBinary can reject x for the
// kinds of value its operands may hold. MiniC's checker lets any operator
// take any operand, but on a pointer every operator other than +, == and
// != can fail, and %, <<, >>, &, | and ^ always fail on a float.
func operandsMayTrap(x *minic.Binary) bool {
	lp, lf := mayHold(x.L)
	rp, rf := mayHold(x.R)
	switch x.Op {
	case "+", "==", "!=":
		return false
	case "%", "<<", ">>", "&", "|", "^":
		return lp || rp || lf || rf
	}
	return lp || rp
}

// mayHold reports whether evaluating e can yield a pointer, and whether
// it can yield a float. An expression it does not model, an assignment
// among them (its value is the unconverted right-hand side), may yield
// either.
func mayHold(e minic.Expr) (ptr, float bool) {
	switch x := e.(type) {
	case *minic.IntLit, *minic.CharLit, *minic.SizeofType:
		return false, false
	case *minic.FloatLit:
		return false, true
	case *minic.Ident:
		// A numeric cell only ever holds a value of its own kind or the
		// int zero of an uninitialized cell.
		if x.Sym != nil && x.Sym.Type != nil && x.Sym.Type.IsNumeric() {
			return false, x.Sym.Type.IsFloat()
		}
	case *minic.Unary:
		switch x.Op {
		case "!", "~":
			return false, false
		case "-":
			_, float = mayHold(x.X)
			return false, float
		}
	case *minic.Binary:
		switch x.Op {
		case "+", "-", "*", "/":
			lp, lf := mayHold(x.L)
			rp, rf := mayHold(x.R)
			return lp || rp, lf || rf
		}
		return false, false // comparisons and int-only operators
	case *minic.Cond:
		tp, tf := mayHold(x.T)
		fp, ff := mayHold(x.F)
		return tp || fp, tf || ff
	case *minic.Call:
		if k, ok := interp.PureKind(x.Name); ok && x.Builtin {
			return false, k == interp.ValFloat
		}
	case *minic.Cast:
		if x.To.IsNumeric() {
			return false, x.To.IsFloat()
		}
	}
	return true, true
}

func emptyAt(pos minic.Pos) minic.Stmt {
	e := &minic.EmptyStmt{}
	e.Pos = pos
	return e
}

// ---- Pass 1: SCCP-driven constant folding ----

func (o *optimizer) foldPass() int {
	o.build(true)
	return o.foldConsts()
}

func (o *optimizer) foldConsts() int {
	n := 0
	var fold func(e minic.Expr)
	fold = func(e minic.Expr) {
		if e == nil || isLiteral(e) {
			return
		}
		if slot := o.f.Exprs[e].slot; slot != nil {
			if c, okc := o.constOfExpr(e); okc && o.execFree(e) {
				*slot = literalFor(c, e)
				o.st.Folded++
				n++
				return
			}
		}
		switch x := e.(type) {
		case *minic.Unary:
			fold(x.X)
		case *minic.Postfix:
			fold(x.X)
		case *minic.Binary:
			fold(x.L)
			fold(x.R)
		case *minic.Assign:
			fold(x.L)
			fold(x.R)
		case *minic.Cond:
			fold(x.C)
			fold(x.T)
			fold(x.F)
		case *minic.Call:
			if x.Name == "__sizeof_var" {
				return
			}
			for _, a := range x.Args {
				fold(a)
			}
		case *minic.Index:
			fold(x.X)
			fold(x.Idx)
		case *minic.Cast:
			fold(x.X)
		}
	}
	minic.WalkStmts(o.fn.Body, func(s minic.Stmt) {
		minic.StmtExprs(s, fold)
	})
	return n
}

// ---- Pass 2: dead-store and dead-init elimination ----

func (o *optimizer) dsePass() int {
	o.build(true)
	live := map[*Instr]bool{}
	var wl []*Instr
	mark := func(in *Instr) {
		if in != nil && !live[in] {
			live[in] = true
			wl = append(wl, in)
		}
	}
	for _, b := range o.f.Blocks {
		if !o.s.Reachable(b) {
			continue
		}
		if b.Cond != nil {
			mark(b.Cond)
		}
		for _, in := range b.Instrs {
			switch {
			case in.Op == OpEffect,
				in.Op == OpCall && !in.Pure,
				in.Op == OpLoadMem && in.Trap:
				mark(in)
			case in.Op == OpBinary && (in.OpStr == "/" || in.OpStr == "%"):
				// A maybe-zero divisor can trap; the whole expression must
				// keep executing.
				if c, ok := o.s.ConstOf(in.Args[1]); !ok || !c.Truthy() {
					mark(in)
				}
			}
		}
	}
	for _, r := range o.f.Rets {
		mark(r)
	}
	for len(wl) > 0 {
		in := wl[len(wl)-1]
		wl = wl[:len(wl)-1]
		for _, a := range in.Args {
			mark(a)
		}
	}

	// Candidate dead stores: unmarked definitions whose statement shape we
	// know how to rewrite. Compound stores (v op= ..., v++) are never
	// deleted — their AST carries the old-value read.
	type cand struct {
		in   *Instr
		full bool // deletes the rhs evaluation too
	}
	var cands []cand
	isCand := map[*Instr]int{}
	for _, b := range o.f.Blocks {
		if !o.s.Reachable(b) {
			continue
		}
		for _, in := range b.Instrs {
			if in.Op != OpStore || live[in] {
				continue
			}
			switch in.StoreKind {
			case StoreAssign:
				es, ok := in.Stmt.(*minic.ExprStmt)
				if !ok || in.Assign == nil || es.X != in.Assign ||
					o.f.stmts[in.Stmt].slot == nil || o.f.Exprs[in.Assign].slot == nil {
					continue
				}
				isCand[in] = len(cands)
				cands = append(cands, cand{in, o.execFree(in.Assign.R)})
			case StoreDeclInit:
				if in.Decl == nil || in.Decl.Init == nil || !o.execFree(in.Decl.Init) {
					continue
				}
				isCand[in] = len(cands)
				cands = append(cands, cand{in, true})
			}
		}
	}
	if len(cands) == 0 {
		return 0
	}

	// Must-keep fixpoint: a store may only be deleted if no load that will
	// still execute reads it (directly or through phis). Deleting a store
	// read by surviving dead code would change the values — or introduce
	// traps — in expressions the interpreter still evaluates.
	dead := make([]bool, len(cands))
	for i := range dead {
		dead[i] = true
	}
	argTree := func(root *Instr, out map[*Instr]bool) {
		var walk func(in *Instr)
		walk = func(in *Instr) {
			if in == nil || out[in] {
				return
			}
			out[in] = true
			if in.Op == OpPhi {
				return // phi args are other defs, not this evaluation
			}
			for _, a := range in.Args {
				walk(a)
			}
		}
		walk(root)
	}
	for changed := true; changed; {
		changed = false
		killed := map[*Instr]bool{}
		for i, c := range cands {
			if !dead[i] {
				continue
			}
			killed[c.in] = true
			if c.full {
				argTree(c.in.Args[0], killed)
			}
		}
		var closure func(d *Instr, seen map[*Instr]bool)
		closure = func(d *Instr, seen map[*Instr]bool) {
			if d == nil || seen[d] {
				return
			}
			seen[d] = true
			if d.Op == OpPhi {
				for _, a := range d.Args {
					closure(a, seen)
				}
			}
		}
		for _, b := range o.f.Blocks {
			if !o.s.Reachable(b) {
				continue
			}
			for _, L := range b.Instrs {
				if L.Op != OpLoad || killed[L] || len(L.Args) == 0 {
					continue
				}
				seen := map[*Instr]bool{}
				closure(L.Args[0], seen)
				//detlint:ignore map-iteration: only clears flags, which visiting order cannot change
				for d := range seen {
					if i, ok := isCand[d]; ok && dead[i] {
						dead[i] = false
						changed = true
					}
				}
			}
		}
	}

	n := 0
	for i, c := range cands {
		if !dead[i] {
			continue
		}
		switch c.in.StoreKind {
		case StoreAssign:
			if c.full {
				*o.f.stmts[c.in.Stmt].slot = emptyAt(minic.NodePos(c.in.Stmt))
			} else {
				// Keep the rhs for its effects; drop only the store.
				*o.f.Exprs[c.in.Assign].slot = c.in.Assign.R
			}
			o.st.Stores++
		case StoreDeclInit:
			c.in.Decl.Init = nil
			o.st.Inits++
		}
		n++
	}
	return n
}

// ---- Pass 3: loop-invariant code motion ----

// typeKind is the kind of value a numeric type's cell holds once written.
func typeKind(t *minic.Type) interp.ValKind {
	if t.IsFloat() {
		return interp.ValFloat
	}
	return interp.ValInt
}

func tempType(k interp.ValKind) *minic.Type {
	if k == interp.ValFloat {
		return minic.DoubleType
	}
	return minic.LongType
}

type pendingInsert struct {
	anchor minic.Stmt
	decl   minic.Stmt
}

// applyInserts splices queued declarations in front of their anchors.
// Block-resident anchors are handled back-to-front so recorded indices
// stay valid (splices into different blocks are independent); other
// anchors are wrapped in a synthetic block (reused when several
// declarations target the same anchor).
func (o *optimizer) applyInserts(pending []pendingInsert) {
	type spliced struct {
		pendingInsert
		at  stmtInfo
		seq int
	}
	var inBlock []spliced
	var wrapped []pendingInsert
	for i, p := range pending {
		if at := o.f.stmts[p.anchor]; at.blk != nil {
			inBlock = append(inBlock, spliced{p, at, i})
		} else {
			wrapped = append(wrapped, p)
		}
	}
	sort.Slice(inBlock, func(i, j int) bool {
		if inBlock[i].at.idx != inBlock[j].at.idx {
			return inBlock[i].at.idx > inBlock[j].at.idx
		}
		return inBlock[i].seq > inBlock[j].seq
	})
	for _, s := range inBlock {
		blk := s.at.blk
		blk.Stmts = append(blk.Stmts, nil)
		copy(blk.Stmts[s.at.idx+1:], blk.Stmts[s.at.idx:])
		blk.Stmts[s.at.idx] = s.decl
	}
	wraps := map[minic.Stmt]*minic.Block{}
	for _, p := range wrapped {
		if wb, ok := wraps[p.anchor]; ok {
			wb.Stmts = append([]minic.Stmt{p.decl}, wb.Stmts...)
			continue
		}
		slot := o.f.stmts[p.anchor].slot
		if slot == nil {
			continue
		}
		wrap := &minic.Block{Stmts: []minic.Stmt{p.decl, p.anchor}}
		wrap.Pos = minic.NodePos(p.anchor)
		*slot = wrap
		wraps[p.anchor] = wrap
	}
}

func (o *optimizer) newTempDecl(prefix string, ty *minic.Type, init minic.Expr, pos minic.Pos) (*minic.Symbol, *minic.DeclStmt) {
	name := fmt.Sprintf("__%s%d", prefix, *o.temp)
	*o.temp = *o.temp + 1
	sym := &minic.Symbol{Name: name, Kind: minic.SymVar, Type: ty}
	decl := &minic.DeclStmt{Decls: []*minic.Declarator{{Name: name, Type: ty, Init: init, Sym: sym}}}
	decl.Pos = pos
	return sym, decl
}

func identRead(sym *minic.Symbol, staticType *minic.Type, pos minic.Pos) *minic.Ident {
	id := &minic.Ident{Name: sym.Name, Sym: sym}
	id.Pos = pos
	id.SetType(staticType)
	return id
}

func (o *optimizer) licmPass() int {
	o.build(false)
	demoted := demotedSyms(o.fn)

	var loops []minic.Stmt
	minic.WalkStmts(o.fn.Body, func(s minic.Stmt) {
		switch s.(type) {
		case *minic.While, *minic.For:
			if o.f.stmts[s].slot != nil {
				loops = append(loops, s)
			}
		}
	})

	var pending []pendingInsert
	n := 0
	// Reverse pre-order processes inner loops before the loops containing
	// them, so inner hoists become assignments the outer scan respects.
	for i := len(loops) - 1; i >= 0; i-- {
		n += o.licmLoop(loops[i], demoted, &pending)
	}
	o.applyInserts(pending)
	return n
}

// assignedSyms collects every symbol written or declared anywhere in the
// loop subtree (including pragma regions, conservatively).
func assignedSyms(loop minic.Stmt) map[*minic.Symbol]bool {
	out := map[*minic.Symbol]bool{}
	record := func(e minic.Expr) {
		if id, ok := e.(*minic.Ident); ok && id.Sym != nil {
			out[id.Sym] = true
		}
	}
	minic.WalkStmts(loop, func(s minic.Stmt) {
		if ds, ok := s.(*minic.DeclStmt); ok {
			for _, d := range ds.Decls {
				if d.Sym != nil {
					out[d.Sym] = true
				}
			}
		}
		minic.StmtExprs(s, func(top minic.Expr) {
			minic.Inspect(top, func(e minic.Expr) bool {
				switch x := e.(type) {
				case *minic.Assign:
					record(x.L)
				case *minic.Unary:
					if x.Op == "++" || x.Op == "--" {
						record(x.X)
					}
				case *minic.Postfix:
					record(x.X)
				}
				return true
			})
		})
	})
	return out
}

func (o *optimizer) licmLoop(loop minic.Stmt, demoted map[*minic.Symbol]bool, pending *[]pendingInsert) int {
	assigned := assignedSyms(loop)

	var invariant func(e minic.Expr) bool
	invariant = func(e minic.Expr) bool {
		switch x := e.(type) {
		case *minic.IntLit, *minic.FloatLit, *minic.CharLit:
			return true
		case *minic.Ident:
			return x.Sym != nil && !x.Sym.Global &&
				(x.Sym.Kind == minic.SymVar || x.Sym.Kind == minic.SymParam) &&
				x.Sym.Type != nil && x.Sym.Type.IsNumeric() &&
				!demoted[x.Sym] && !assigned[x.Sym]
		case *minic.Unary:
			switch x.Op {
			case "-", "!", "~":
				return invariant(x.X)
			}
			return false
		case *minic.Binary:
			switch x.Op {
			case "&&", "||":
				return false // lazily evaluated; keep shape
			case "/", "%":
				c, ok := litConst(x.R)
				if !ok || !c.Truthy() {
					return false // divisor must be a provably-nonzero literal
				}
			}
			return !operandsMayTrap(x) && invariant(x.L) && invariant(x.R)
		case *minic.Call:
			if !pureCall(x) {
				return false
			}
			for _, a := range x.Args {
				if !invariant(a) {
					return false
				}
			}
			return true
		case *minic.Cast:
			return x.To != nil && x.To.IsNumeric() && invariant(x.X)
		}
		return false
	}

	// kindCertain proves the runtime Value kind of an invariant expression.
	// A float-typed variable is uncertain (an uninitialized cell reads as
	// an int zero); certainty flows back through float promotion.
	var kindCertain func(e minic.Expr) (interp.ValKind, bool)
	kindCertain = func(e minic.Expr) (interp.ValKind, bool) {
		switch x := e.(type) {
		case *minic.IntLit, *minic.CharLit, *minic.FloatLit:
			c, _ := litConst(e)
			return c.Kind, true
		case *minic.Ident:
			k := typeKind(x.Sym.Type)
			return k, k == interp.ValInt
		case *minic.Unary:
			if x.Op == "-" {
				return kindCertain(x.X)
			}
			return interp.ValInt, true
		case *minic.Binary:
			switch x.Op {
			case "==", "!=", "<", ">", "<=", ">=", "<<", ">>", "&", "|", "^":
				return interp.ValInt, true
			case "%":
				lk, lok := kindCertain(x.L)
				rk, rok := kindCertain(x.R)
				return interp.ValInt, lok && rok && lk == interp.ValInt && rk == interp.ValInt
			case "+", "-", "*", "/":
				lk, lok := kindCertain(x.L)
				rk, rok := kindCertain(x.R)
				if (lok && lk == interp.ValFloat) || (rok && rk == interp.ValFloat) {
					return interp.ValFloat, true // promotion decides regardless
				}
				return interp.ValInt, lok && rok
			}
			return 0, false
		case *minic.Call:
			return interp.PureKind(x.Name)
		case *minic.Cast:
			return typeKind(x.To), true
		}
		return 0, false
	}

	weight := func(e minic.Expr) bool {
		ops, call, nodes := 0, false, 0
		minic.Inspect(e, func(x minic.Expr) bool {
			nodes++
			switch x.(type) {
			case *minic.Unary, *minic.Binary, *minic.Cast:
				ops++
			case *minic.Call:
				call = true
			}
			return true
		})
		return call || (ops >= 1 && nodes >= 3)
	}

	// Collect maximal invariant subexpressions, keyed structurally.
	type group struct {
		exprs []minic.Expr
	}
	groups := map[string]*group{}
	var order []string
	var scanExpr func(e minic.Expr)
	scanExpr = func(e minic.Expr) {
		if e == nil || isLiteral(e) {
			return
		}
		if o.f.Exprs[e].slot != nil && invariant(e) && weight(e) {
			if _, certain := kindCertain(e); certain {
				k := exprKey(e)
				g := groups[k]
				if g == nil {
					g = &group{}
					groups[k] = g
					order = append(order, k)
				}
				g.exprs = append(g.exprs, e)
				return
			}
		}
		switch x := e.(type) {
		case *minic.Unary:
			scanExpr(x.X)
		case *minic.Postfix:
			scanExpr(x.X)
		case *minic.Binary:
			scanExpr(x.L)
			scanExpr(x.R)
		case *minic.Assign:
			scanExpr(x.L)
			scanExpr(x.R)
		case *minic.Cond:
			scanExpr(x.C)
			scanExpr(x.T)
			scanExpr(x.F)
		case *minic.Call:
			if x.Name != "__sizeof_var" {
				for _, a := range x.Args {
					scanExpr(a)
				}
			}
		case *minic.Index:
			scanExpr(x.X)
			scanExpr(x.Idx)
		case *minic.Cast:
			scanExpr(x.X)
		}
	}
	var scanStmt func(s minic.Stmt)
	scanStmt = func(s minic.Stmt) {
		switch st := s.(type) {
		case nil:
		case *minic.PragmaStmt:
			// Never hoist across a region boundary: the kernel executes
			// only the region, where an outside temp would be unbound.
		case *minic.Block:
			for _, inner := range st.Stmts {
				scanStmt(inner)
			}
		case *minic.If:
			scanExpr(st.Cond)
			scanStmt(st.Then)
			scanStmt(st.Else)
		case *minic.While:
			scanExpr(st.Cond)
			scanStmt(st.Body)
		case *minic.For:
			scanStmt(st.Init)
			scanExpr(st.Cond)
			scanExpr(st.Post)
			scanStmt(st.Body)
		default:
			minic.StmtExprs(s, scanExpr)
		}
	}
	switch l := loop.(type) {
	case *minic.While:
		scanExpr(l.Cond)
		scanStmt(l.Body)
	case *minic.For:
		scanExpr(l.Cond)
		scanExpr(l.Post)
		scanStmt(l.Body)
	}

	n := 0
	for _, k := range order {
		g := groups[k]
		first := g.exprs[0]
		kind, _ := kindCertain(first)
		ty := tempType(kind)
		pos := minic.NodePos(loop)
		sym, decl := o.newTempDecl("licm", ty, cloneExpr(first), pos)
		*pending = append(*pending, pendingInsert{anchor: loop, decl: decl})
		for _, e := range g.exprs {
			*o.f.Exprs[e].slot = identRead(sym, e.Type(), minic.NodePos(e))
		}
		o.st.LICM++
		n++
	}
	return n
}
