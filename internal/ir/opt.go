package ir

import (
	"fmt"
	"sort"

	"repro/internal/minic"
)

// Stats reports what the optimizer did to one program.
type Stats struct {
	Funcs    int
	Rounds   int
	Folded   int // expressions replaced by literals
	Branches int // constant branches simplified
	Trimmed  int // unreachable statements removed
	Stores   int // dead assignments removed
	Inits    int // dead declaration initializers removed
	Copies   int // variable reads redirected to copy sources
	CSE      int // common subexpressions shared through temps
	LICM     int // loop-invariant expressions hoisted

	NodesBefore int
	NodesAfter  int
}

// Changed reports whether any rewrite was applied.
func (st *Stats) Changed() bool {
	return st.Folded+st.Branches+st.Trimmed+st.Stores+st.Inits+st.Copies+st.CSE+st.LICM > 0
}

// Add accumulates other into st (per-pass counters and rounds; node counts
// are left to the caller).
func (st *Stats) Add(o *Stats) {
	st.Funcs += o.Funcs
	st.Rounds += o.Rounds
	st.Folded += o.Folded
	st.Branches += o.Branches
	st.Trimmed += o.Trimmed
	st.Stores += o.Stores
	st.Inits += o.Inits
	st.Copies += o.Copies
	st.CSE += o.CSE
	st.LICM += o.LICM
}

func (st *Stats) String() string {
	return fmt.Sprintf("fold=%d branch=%d trim=%d dse=%d deadinit=%d copy=%d cse=%d licm=%d nodes=%d->%d",
		st.Folded, st.Branches, st.Trimmed, st.Stores, st.Inits, st.Copies, st.CSE, st.LICM,
		st.NodesBefore, st.NodesAfter)
}

// maxRounds bounds the fold→DSE→copy→CSE→LICM pipeline iterations per
// function; each round only runs if the previous one changed something.
const maxRounds = 3

// Pass selects optimizer passes for OptimizeSelected. OptimizeProgram
// runs AllPasses; partial masks exist for per-pass effect measurement
// (make opt-report) and ablation, not as a user-facing -O level.
type Pass uint

const (
	PassFold Pass = 1 << iota // SCCP folding, branch simplification, unreachable trim
	PassDSE                   // dead stores and dead declaration initializers
	PassCopy                  // copy propagation
	PassCSE                   // common-subexpression elimination
	PassLICM                  // loop-invariant code motion

	AllPasses = PassFold | PassDSE | PassCopy | PassCSE | PassLICM
)

// OptimizeProgram rewrites prog in place: constant folding and branch
// simplification driven by SCCP, dead-store and dead-init elimination,
// copy propagation, dominator-scoped common-subexpression elimination, and
// loop-invariant code motion. Every rewrite preserves internal/interp
// semantics exactly (including trap behavior and evaluation order of
// side effects); only the interpreter's per-node cost shrinks.
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
	for round := 0; round < maxRounds; round++ {
		st.Rounds++
		o := &optimizer{fn: fn, st: st, temp: temp}
		n := 0
		if passes&PassFold != 0 {
			n += o.foldPass()
		}
		if passes&PassDSE != 0 {
			n += o.dsePass()
		}
		if passes&PassCopy != 0 {
			n += o.copyPropPass()
		}
		if passes&PassCSE != 0 {
			n += o.csePass()
		}
		if passes&PassLICM != 0 {
			n += o.licmPass()
		}
		if n == 0 {
			return
		}
	}
}

// optimizer holds per-pass state; f/s/a are rebuilt by each pass because
// every pass mutates the AST the next one reads.
type optimizer struct {
	fn   *minic.FuncDecl
	f    *Func
	s    *SCCP
	a    *astInfo
	st   *Stats
	temp *int
}

func (o *optimizer) build(sccp bool) {
	o.f = Build(o.fn)
	if sccp {
		o.s = Run(o.f)
	} else {
		o.s = nil
	}
	o.a = indexAST(o.fn)
}

// constOfExpr returns the proven constant value of e, requiring its
// instruction to sit in reachable code.
func (o *optimizer) constOfExpr(e minic.Expr) (Const, bool) {
	in := o.f.ExprInstr[e]
	if in == nil || in.Block == nil || !o.s.Reachable(in.Block) {
		return Const{}, false
	}
	return o.s.ConstOf(in)
}

// litConst reads a literal's value directly (for conditions already folded
// in an earlier round).
func litConst(e minic.Expr) (Const, bool) {
	switch x := e.(type) {
	case *minic.IntLit:
		return IntConst(x.Value), true
	case *minic.CharLit:
		return IntConst(int64(x.Value)), true
	case *minic.FloatLit:
		return FloatConst(x.Value), true
	}
	return Const{}, false
}

func (o *optimizer) condConst(e minic.Expr) (Const, bool) {
	if c, ok := litConst(e); ok {
		return c, true
	}
	return o.constOfExpr(e)
}

// execFree reports whether evaluating e has no side effects and cannot
// trap: no assignments, increments, function calls (other than pure
// builtins), memory loads through indices or pointers, and no division
// whose divisor is not provably nonzero. Such expressions may be deleted
// or evaluated fewer times without observable difference.
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
		return o.execFree(x.L) && o.execFree(x.R)
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
		if !x.Builtin || !pureBuiltins[x.Name] {
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

// containsPragma reports whether s contains a pragma statement anywhere;
// such subtrees are never restructured because kernel specs hold pointers
// into them.
func containsPragma(s minic.Stmt) bool {
	found := false
	minic.WalkStmts(s, func(st minic.Stmt) {
		if _, ok := st.(*minic.PragmaStmt); ok {
			found = true
		}
	})
	return found
}

func emptyAt(pos minic.Pos) minic.Stmt {
	e := &minic.EmptyStmt{}
	e.Pos = pos
	return e
}

// ---- Pass 1: SCCP-driven folding, branch simplification, trimming ----

func (o *optimizer) foldPass() int {
	o.build(true)
	n := o.simplifyBranches()
	n += o.trimUnreachable()
	// Branch rewrites restructured statements; re-index before folding so
	// expression setters point at the surviving tree.
	o.a = indexAST(o.fn)
	n += o.foldConsts()
	n += o.cleanupPureStmts()
	return n
}

func (o *optimizer) simplifyBranches() int {
	n := 0
	minic.WalkStmts(o.fn.Body, func(s minic.Stmt) {
		set, ok := o.a.stmtSet[s]
		if !ok || o.a.protected[s] || containsPragma(s) {
			return
		}
		switch st := s.(type) {
		case *minic.If:
			c, ok := o.condConst(st.Cond)
			if !ok {
				return
			}
			taken := st.Then
			if !c.Truthy() {
				taken = st.Else
			}
			if taken == nil {
				taken = emptyAt(st.Pos)
			}
			if o.execFree(st.Cond) {
				set(taken)
			} else {
				wrap := &minic.Block{Stmts: []minic.Stmt{condStmt(st.Cond), taken}}
				wrap.Pos = st.Pos
				set(wrap)
			}
			o.st.Branches++
			n++
		case *minic.While:
			// Only a provably-false condition simplifies: the condition is
			// still evaluated once before the loop exits.
			c, ok := o.condConst(st.Cond)
			if !ok || c.Truthy() {
				return
			}
			if o.execFree(st.Cond) {
				set(emptyAt(st.Pos))
			} else {
				set(condStmt(st.Cond))
			}
			o.st.Branches++
			n++
		case *minic.For:
			if st.Cond == nil {
				return
			}
			c, ok := o.condConst(st.Cond)
			if !ok || c.Truthy() {
				return
			}
			// Body and post never run; init runs, then the condition is
			// evaluated once.
			var keep []minic.Stmt
			if st.Init != nil {
				keep = append(keep, st.Init)
			}
			if !o.execFree(st.Cond) {
				keep = append(keep, condStmt(st.Cond))
			}
			if len(keep) == 0 {
				set(emptyAt(st.Pos))
			} else {
				wrap := &minic.Block{Stmts: keep}
				wrap.Pos = st.Pos
				set(wrap)
			}
			o.st.Branches++
			n++
		}
	})
	return n
}

func condStmt(cond minic.Expr) minic.Stmt {
	es := &minic.ExprStmt{X: cond}
	es.Pos = exprPos(cond)
	return es
}

// trimUnreachable drops statements that follow an unconditional
// return/break/continue inside the same block.
func (o *optimizer) trimUnreachable() int {
	n := 0
	minic.WalkStmts(o.fn.Body, func(s minic.Stmt) {
		blk, ok := s.(*minic.Block)
		if !ok {
			return
		}
		for i, inner := range blk.Stmts {
			switch inner.(type) {
			case *minic.Return, *minic.Break, *minic.Continue:
			default:
				continue
			}
			if i+1 >= len(blk.Stmts) {
				return
			}
			tail := blk.Stmts[i+1:]
			for _, t := range tail {
				if containsPragma(t) {
					return
				}
			}
			n += len(tail)
			o.st.Trimmed += len(tail)
			blk.Stmts = blk.Stmts[:i+1]
			return
		}
	})
	return n
}

func (o *optimizer) foldConsts() int {
	n := 0
	var fold func(e minic.Expr)
	fold = func(e minic.Expr) {
		if e == nil || isLiteral(e) {
			return
		}
		if set, ok := o.a.exprSet[e]; ok {
			if c, okc := o.constOfExpr(e); okc && o.execFree(e) {
				set(literalFor(c, e))
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

// cleanupPureStmts deletes expression statements whose evaluation has no
// effect (typically left behind by folding).
func (o *optimizer) cleanupPureStmts() int {
	n := 0
	minic.WalkStmts(o.fn.Body, func(s minic.Stmt) {
		es, ok := s.(*minic.ExprStmt)
		if !ok || o.a.protected[s] {
			return
		}
		set, ok := o.a.stmtSet[s]
		if !ok {
			return
		}
		if !o.execFree(es.X) {
			return
		}
		set(emptyAt(es.Pos))
		o.st.Trimmed++
		n++
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
				if !ok || in.Assign == nil || es.X != in.Assign || o.a.protected[in.Stmt] {
					continue
				}
				if _, ok := o.a.stmtSet[in.Stmt]; !ok {
					continue
				}
				if _, ok := o.a.exprSet[in.Assign]; !ok {
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
				o.a.stmtSet[c.in.Stmt](emptyAt(stmtPos(c.in.Stmt)))
			} else {
				// Keep the rhs for its effects; drop only the store.
				o.a.exprSet[c.in.Assign](c.in.Assign.R)
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

// ---- Pass 3: copy propagation ----

// kindCompatCopy reports whether reading w instead of v yields an
// identical value given that v was assigned w's value: storing into v must
// be an identity conversion for every value w's cell can hold.
func kindCompatCopy(v, w *minic.Type) bool {
	if v.Kind == w.Kind {
		return true
	}
	switch v.Kind {
	case minic.TypeLong:
		return w.Kind == minic.TypeChar || w.Kind == minic.TypeInt
	case minic.TypeInt:
		return w.Kind == minic.TypeChar
	case minic.TypeDouble:
		return w.Kind == minic.TypeFloat
	}
	return false
}

func (o *optimizer) copyPropPass() int {
	o.build(false)
	defCount := map[*Var]int{}
	for _, in := range o.f.instrs {
		switch in.Op {
		case OpStore, OpDeclZero, OpParam:
			defCount[in.Var]++
		}
	}
	n := 0
	for _, S := range o.f.instrs {
		if S.Op != OpStore || len(S.Args) == 0 {
			continue
		}
		ld := S.Args[0]
		if ld == nil || ld.Op != OpLoad || ld.Var == S.Var || len(ld.Args) == 0 {
			continue
		}
		w := ld.Var
		wdef := ld.Args[0]
		if wdef == nil || defCount[w] != 1 {
			continue
		}
		// The source's single definition must not be able to re-execute
		// between the copy and its uses; outside any loop (or a parameter)
		// it runs at most once per call.
		if wdef.Op != OpParam {
			if wdef.Stmt == nil || o.a.loopDepth[wdef.Stmt] != 0 {
				continue
			}
		}
		if !kindCompatCopy(S.Var.Type, w.Type) {
			continue
		}
		var wdefRegion *minic.PragmaStmt
		if wdef.Stmt != nil {
			wdefRegion = o.a.regionOf[wdef.Stmt]
		}
		for _, L := range o.f.instrs {
			if L.Op != OpLoad || L.Var != S.Var || len(L.Args) == 0 || L.Args[0] != S {
				continue
			}
			id, ok := L.Expr.(*minic.Ident)
			if !ok {
				continue
			}
			// Never introduce a cross-region reference: kernel frames bind
			// only the symbols captured at translate time.
			if L.Stmt == nil || o.a.regionOf[L.Stmt] != wdefRegion {
				continue
			}
			id.Name = w.Sym.Name
			id.Sym = w.Sym
			id.SetType(w.Sym.Type)
			o.st.Copies++
			n++
		}
	}
	return n
}

// ---- Pass 4: common-subexpression elimination ----

// valueKind computes the runtime Value kind an instruction always
// produces, mirroring the interpreter's promotion rules. ok is false when
// the kind is not provable (then no temp may be typed for it).
func valueKind(in *Instr) (ConstKind, bool) {
	switch in.Op {
	case OpConst:
		return in.Val.Kind, true
	case OpLoad:
		if len(in.Args) == 0 || in.Args[0] == nil {
			return 0, false
		}
		switch in.Args[0].Op {
		case OpPhi:
			return 0, false
		case OpDeclZero:
			// An uninitialized cell reads as the zero Value: an int 0,
			// regardless of the declared type.
			return ConstInt, true
		}
		if in.Var.Type.Kind == minic.TypeFloat || in.Var.Type.Kind == minic.TypeDouble {
			return ConstFloat, true
		}
		return ConstInt, true
	case OpUnary:
		if in.OpStr == "-" {
			return valueKind(in.Args[0])
		}
		return ConstInt, true
	case OpBinary:
		switch in.OpStr {
		case "==", "!=", "<", ">", "<=", ">=", "<<", ">>", "&", "|", "^":
			return ConstInt, true
		case "%":
			// Modulo is int-only in the interpreter; float operands error.
			lk, lok := valueKind(in.Args[0])
			rk, rok := valueKind(in.Args[1])
			if lok && rok && lk == ConstInt && rk == ConstInt {
				return ConstInt, true
			}
			return 0, false
		case "+", "-", "*", "/":
			lk, lok := valueKind(in.Args[0])
			rk, rok := valueKind(in.Args[1])
			if !lok || !rok {
				return 0, false
			}
			if lk == ConstFloat || rk == ConstFloat {
				return ConstFloat, true
			}
			return ConstInt, true
		}
		return 0, false
	case OpCast:
		if in.To == nil {
			return 0, false
		}
		switch in.To.Kind {
		case minic.TypeChar, minic.TypeInt, minic.TypeLong:
			return ConstInt, true
		case minic.TypeFloat, minic.TypeDouble:
			return ConstFloat, true
		}
		return 0, false
	case OpCall:
		if _, ok := pureFn1[in.OpStr]; ok {
			return ConstFloat, true
		}
		if _, ok := pureFn2[in.OpStr]; ok {
			return ConstFloat, true
		}
		switch in.OpStr {
		case "abs", "isdigit", "isalpha", "isalnum", "isspace", "tolower", "toupper":
			return ConstInt, true
		}
	}
	return 0, false
}

func tempType(k ConstKind) *minic.Type {
	if k == ConstFloat {
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
// stay valid; other anchors are wrapped in a synthetic block (reused when
// several declarations target the same anchor).
func (o *optimizer) applyInserts(pending []pendingInsert) {
	type slotted struct {
		pendingInsert
		slot blockSlot
		seq  int
	}
	var inBlock []slotted
	var wrapped []pendingInsert
	for i, p := range pending {
		if slot, ok := o.a.blockPos[p.anchor]; ok {
			inBlock = append(inBlock, slotted{p, slot, i})
		} else {
			wrapped = append(wrapped, p)
		}
	}
	sort.Slice(inBlock, func(i, j int) bool {
		if inBlock[i].slot.blk != inBlock[j].slot.blk {
			return o.a.blockOrder[inBlock[i].slot.blk] < o.a.blockOrder[inBlock[j].slot.blk]
		}
		if inBlock[i].slot.idx != inBlock[j].slot.idx {
			return inBlock[i].slot.idx > inBlock[j].slot.idx
		}
		return inBlock[i].seq > inBlock[j].seq
	})
	for _, s := range inBlock {
		blk := s.slot.blk
		blk.Stmts = append(blk.Stmts, nil)
		copy(blk.Stmts[s.slot.idx+1:], blk.Stmts[s.slot.idx:])
		blk.Stmts[s.slot.idx] = s.decl
	}
	wraps := map[minic.Stmt]*minic.Block{}
	for _, p := range wrapped {
		if wb, ok := wraps[p.anchor]; ok {
			wb.Stmts = append([]minic.Stmt{p.decl}, wb.Stmts...)
			continue
		}
		set, ok := o.a.stmtSet[p.anchor]
		if !ok || o.a.protected[p.anchor] {
			continue
		}
		wrap := &minic.Block{Stmts: []minic.Stmt{p.decl, p.anchor}}
		wrap.Pos = stmtPos(p.anchor)
		set(wrap)
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

func (o *optimizer) csePass() int {
	o.build(true)
	// Value numbers over SSA: identical numbers mean identical runtime
	// values wherever both expressions are evaluated with the same
	// reaching definitions.
	vn := map[*Instr]string{}
	num := func(in *Instr) string {
		key := func(op string) string {
			k := op
			for _, a := range in.Args {
				if a == nil {
					return fmt.Sprintf("q:%d", in.ID)
				}
				k += "," + vn[a]
			}
			return k
		}
		switch in.Op {
		case OpConst:
			if in.Val.Kind == ConstFloat {
				return fmt.Sprintf("k:f%x", in.Val.F)
			}
			return fmt.Sprintf("k:i%d", in.Val.I)
		case OpLoad:
			if len(in.Args) > 0 && in.Args[0] != nil {
				return fmt.Sprintf("d:%d", in.Args[0].ID)
			}
		case OpUnary:
			return key("u:" + in.OpStr)
		case OpBinary:
			if in.OpStr == "/" || in.OpStr == "%" {
				if c, ok := o.s.ConstOf(in.Args[1]); !ok || !c.Truthy() {
					break // may trap; never share
				}
			}
			return key("b:" + in.OpStr)
		case OpCast:
			if in.To != nil && scalarKind(in.To.Kind) {
				return key(fmt.Sprintf("c:%d", in.To.Kind))
			}
		case OpCall:
			if in.Pure {
				return key("f:" + in.OpStr)
			}
		}
		return fmt.Sprintf("q:%d", in.ID)
	}
	classes := map[string][]*Instr{}
	var classOrder []string
	for _, in := range o.f.instrs {
		v := num(in)
		vn[in] = v
		switch in.Op {
		case OpUnary, OpBinary, OpCast, OpCall:
			if v[0] != 'q' {
				if len(classes[v]) == 0 {
					classOrder = append(classOrder, v)
				}
				classes[v] = append(classes[v], in)
			}
		}
	}

	dirty := map[minic.Expr]bool{}
	markDirty := func(e minic.Expr) {
		minic.Inspect(e, func(x minic.Expr) bool { dirty[x] = true; return true })
	}
	isDirty := func(e minic.Expr) bool {
		found := false
		minic.Inspect(e, func(x minic.Expr) bool {
			if dirty[x] {
				found = true
			}
			return !found
		})
		return found
	}

	// eligible vets one instruction for sharing: a rewritable expression in
	// reachable code whose operand loads are all available immediately
	// before its statement (concrete non-phi definitions from earlier
	// statements), anchored to a statement that executes exactly once per
	// evaluation of the expression.
	eligible := func(in *Instr) bool {
		if in.Expr == nil || in.Stmt == nil || !o.s.Reachable(in.Block) {
			return false
		}
		if _, ok := o.a.exprSet[in.Expr]; !ok {
			return false
		}
		switch in.Stmt.(type) {
		case *minic.While, *minic.For:
			// Condition/post expressions evaluate once per iteration while
			// a hoisted temp would not.
			return false
		}
		if isDirty(in.Expr) {
			return false
		}
		ok := true
		var walk func(x *Instr)
		seen := map[*Instr]bool{}
		walk = func(x *Instr) {
			if x == nil || seen[x] || !ok {
				return
			}
			seen[x] = true
			if x.Op == OpLoad {
				d := x.Args[0]
				if d == nil || d.Op == OpPhi || (d.Stmt != nil && d.Stmt == in.Stmt) {
					ok = false
				}
				return
			}
			for _, a := range x.Args {
				walk(a)
			}
		}
		walk(in)
		return ok
	}

	weight := func(in *Instr) bool {
		ops, call := 0, false
		var walk func(x *Instr)
		walk = func(x *Instr) {
			if x == nil {
				return
			}
			switch x.Op {
			case OpUnary, OpBinary, OpCast:
				ops++
			case OpCall:
				call = true
			case OpLoad, OpConst:
				return
			}
			for _, a := range x.Args {
				walk(a)
			}
		}
		walk(in)
		return ops >= 2 || call
	}

	var pending []pendingInsert
	n := 0
	for _, key := range classOrder {
		class := classes[key]
		if len(class) < 2 {
			continue
		}
		sort.Slice(class, func(i, j int) bool {
			bi, bj := class[i].Block, class[j].Block
			if bi != bj {
				return bi.rpo < bj.rpo
			}
			return class[i].ID < class[j].ID
		})
		var lead *Instr
		var targets []*Instr
		for _, in := range class {
			if !eligible(in) {
				continue
			}
			if lead == nil {
				lead = in
				continue
			}
			if o.a.regionOf[in.Stmt] != o.a.regionOf[lead.Stmt] {
				continue
			}
			if lead.Block == in.Block {
				if lead.ID < in.ID {
					targets = append(targets, in)
				}
			} else if dominates(lead.Block, in.Block) {
				targets = append(targets, in)
			}
		}
		if lead == nil || len(targets) == 0 || !weight(lead) {
			continue
		}
		kind, ok := valueKind(lead)
		if !ok {
			continue
		}
		ty := tempType(kind)
		pos := exprPos(lead.Expr)
		sym, decl := o.newTempDecl("cse", ty, lead.Expr, pos)
		pending = append(pending, pendingInsert{anchor: lead.Stmt, decl: decl})
		markDirty(lead.Expr)
		o.a.exprSet[lead.Expr](identRead(sym, lead.Expr.Type(), pos))
		for _, t := range targets {
			markDirty(t.Expr)
			id := identRead(sym, t.Expr.Type(), exprPos(t.Expr))
			dirty[id] = true
			o.a.exprSet[t.Expr](id)
		}
		o.st.CSE++
		n++
	}
	o.applyInserts(pending)
	return n
}

// ---- Pass 5: loop-invariant code motion ----

func (o *optimizer) licmPass() int {
	o.a = indexAST(o.fn)
	demoted := demotedSyms(o.fn)

	var loops []minic.Stmt
	minic.WalkStmts(o.fn.Body, func(s minic.Stmt) {
		switch s.(type) {
		case *minic.While, *minic.For:
			if _, ok := o.a.stmtSet[s]; ok {
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
				x.Sym.Type != nil && scalarKind(x.Sym.Type.Kind) &&
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
			return invariant(x.L) && invariant(x.R)
		case *minic.Call:
			if !x.Builtin || !pureBuiltins[x.Name] {
				return false
			}
			for _, a := range x.Args {
				if !invariant(a) {
					return false
				}
			}
			return true
		case *minic.Cast:
			return x.To != nil && scalarKind(x.To.Kind) && invariant(x.X)
		}
		return false
	}

	// kindCertain proves the runtime Value kind of an invariant expression.
	// A float-typed variable is uncertain (an uninitialized cell reads as
	// an int zero); certainty flows back through float promotion.
	var kindCertain func(e minic.Expr) (ConstKind, bool)
	kindCertain = func(e minic.Expr) (ConstKind, bool) {
		switch x := e.(type) {
		case *minic.IntLit, *minic.CharLit:
			return ConstInt, true
		case *minic.FloatLit:
			return ConstFloat, true
		case *minic.Ident:
			switch x.Sym.Type.Kind {
			case minic.TypeChar, minic.TypeInt, minic.TypeLong:
				return ConstInt, true
			}
			return ConstFloat, false
		case *minic.Unary:
			if x.Op == "-" {
				return kindCertain(x.X)
			}
			return ConstInt, true
		case *minic.Binary:
			switch x.Op {
			case "==", "!=", "<", ">", "<=", ">=", "<<", ">>", "&", "|", "^":
				return ConstInt, true
			case "%":
				lk, lok := kindCertain(x.L)
				rk, rok := kindCertain(x.R)
				if lok && rok && lk == ConstInt && rk == ConstInt {
					return ConstInt, true
				}
				return 0, false
			case "+", "-", "*", "/":
				lk, lok := kindCertain(x.L)
				rk, rok := kindCertain(x.R)
				if (lok && lk == ConstFloat) || (rok && rk == ConstFloat) {
					return ConstFloat, true // promotion decides regardless
				}
				if lok && rok {
					return ConstInt, true
				}
				return 0, false
			}
			return 0, false
		case *minic.Call:
			if _, ok := pureFn1[x.Name]; ok {
				return ConstFloat, true
			}
			if _, ok := pureFn2[x.Name]; ok {
				return ConstFloat, true
			}
			return ConstInt, true // abs/ctype helpers
		case *minic.Cast:
			switch x.To.Kind {
			case minic.TypeFloat, minic.TypeDouble:
				return ConstFloat, true
			}
			return ConstInt, true
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
		if _, ok := o.a.exprSet[e]; ok && invariant(e) && weight(e) {
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
		pos := stmtPos(loop)
		sym, decl := o.newTempDecl("licm", ty, cloneExpr(first), pos)
		*pending = append(*pending, pendingInsert{anchor: loop, decl: decl})
		for _, e := range g.exprs {
			o.a.exprSet[e](identRead(sym, e.Type(), exprPos(e)))
		}
		o.st.LICM++
		n++
	}
	return n
}
