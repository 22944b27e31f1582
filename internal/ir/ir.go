// Package ir lowers MiniC functions into a CFG+SSA intermediate form with
// a reusable dataflow framework, and implements the three analysis-driven
// rewrites the compiler applies to a program's AST before compiling it to
// bytecode: constant folding driven by sparse conditional constant
// propagation, dead-store and dead-initializer elimination, and
// loop-invariant hoisting. The same fact base feeds the HD6xx optimization
// lints in internal/analysis, so the linter and the optimizer can never
// disagree about what is constant or unreachable.
//
// The IR is deliberately AST-anchored: every instruction remembers the
// expression and statement it was lowered from. The optimizer rewrites
// the AST into a provably equivalent smaller one, and internal/bytecode
// lowers the optimized AST through this package again into the register
// code that every stage, CPU or GPU, runs. Semantic equivalence is
// defined by internal/interp, which also does the arithmetic: constants
// are interp.Values, SCCP folds them by calling the interpreter's own
// operators, conversions and pure builtins, and the lattice compares them
// bitwise. Nothing that could trap (division by zero, out-of-bounds
// access) is folded or deleted.
package ir

import (
	"repro/internal/interp"
	"repro/internal/minic"
)

// Op enumerates IR instruction kinds.
type Op int

// Instruction kinds.
const (
	// OpConst is a literal integer or float value.
	OpConst Op = iota
	// OpParam defines a function parameter's incoming value.
	OpParam
	// OpDeclZero defines a tracked variable at an initializer-less
	// declaration. Uninitialized cells read as int 0 in the interpreter,
	// so this is a definition of constant zero.
	OpDeclZero
	// OpLoad reads a tracked variable; after SSA renaming Args[0] is the
	// reaching definition (OpStore, OpDeclZero, OpParam, or OpPhi).
	OpLoad
	// OpLoadMem is an opaque value load: globals, array elements, pointer
	// dereferences, string literals, address-of results. Never folded.
	OpLoadMem
	// OpStore writes a tracked variable. Args[0] is the assigned value.
	// As a definition its observable value is convertFor(Var.Type, rhs) —
	// the storage-truncated cell — while the enclosing assignment
	// *expression* yields the unconverted rhs, exactly like the
	// interpreter.
	OpStore
	// OpPhi merges definitions at a CFG join; Args align with Block.Preds.
	OpPhi
	// OpUnary applies -, !, or ~.
	OpUnary
	// OpBinary applies a non-short-circuit binary operator.
	OpBinary
	// OpLogic is && or || with the interpreter's lazy semantics: the
	// right operand's instructions are lowered into the same block but
	// may not execute at runtime, so no tracked definitions are allowed
	// inside it (the lowerer demotes any such variable).
	OpLogic
	// OpSelect is the ?: operator; Args are [cond, then, else].
	OpSelect
	// OpCast converts to CastTo with convertFor semantics.
	OpCast
	// OpCall invokes a function or builtin; Pure marks the side-effect-
	// and trap-free builtins of interp's purity table.
	OpCall
	// OpEffect is an opaque side effect: a store through memory, an
	// increment of an untracked lvalue, or any write the IR does not
	// model. Always a liveness root.
	OpEffect
)

// StoreKind classifies how an OpStore appears in the AST, which decides
// whether dead-store elimination can delete its statement.
type StoreKind int

// Store kinds.
const (
	// StoreAssign is a plain `v = rhs` assignment expression.
	StoreAssign StoreKind = iota
	// StoreCompound is `v op= rhs`, `v++`, `--v`, etc.
	StoreCompound
	// StoreDeclInit is a declaration initializer `int v = rhs;`.
	StoreDeclInit
)

// Instr is one IR instruction.
type Instr struct {
	ID    int
	Op    Op
	OpStr string       // operator for OpUnary/OpBinary/OpLogic, name for OpCall
	Var   *Var         // for OpParam/OpDeclZero/OpLoad/OpStore/OpPhi
	Val   interp.Value // for OpConst: kind ValInt or ValFloat
	To    *minic.Type
	Args  []*Instr
	Block *Block
	// Ends delimits the conditional parts of OpLogic (Ends[0]: the last
	// instruction of the left operand) and OpSelect (the last of the
	// condition, then the last of the then arm). An operand's value need
	// not be its last instruction: an assignment yields its right-hand
	// side, then stores. For an OpEffect assignment through an index or a
	// pointer, Ends[0] is the last instruction of the target's operands:
	// the interpreter checks the target there, before the right-hand side.
	Ends [2]*Instr

	// Expr / Stmt anchor the instruction to its AST origin. Expr is nil
	// for synthetic instructions (e.g. the constant 1 of an increment).
	Expr minic.Expr
	Stmt minic.Stmt

	// Pure marks OpCall instructions whose builtin is side-effect- and
	// trap-free (see pureCall).
	Pure bool
	// Trap marks instructions that can abort execution: potentially
	// out-of-bounds loads/derefs; division/modulo traps are derived from
	// the divisor's lattice value instead (see canTrap).
	Trap bool
	// Entries is the number of eval-entry ops the interpreter charges just
	// before this instruction's own events. It charges an expression's
	// entry op when it enters the expression, before its operands, and
	// the lowerer emits an expression's first instruction right after
	// entering it, so each lowered expression adds one to the next
	// instruction emitted. Phis and params carry 0.
	Entries int32

	// StoreKind/Decl describe OpStore AST shape for DSE rewriting.
	StoreKind StoreKind
	Decl      *minic.Declarator // for StoreDeclInit
	Assign    *minic.Assign     // for StoreAssign

	lat lattice // SCCP result
}

// Var is a tracked scalar local: a non-global, non-array, non-pointer
// variable whose address is never taken and which is never defined inside
// a conditionally-evaluated subexpression.
type Var struct {
	ID   int
	Sym  *minic.Symbol
	Type *minic.Type
}

// Block is a basic block. Terminators are implicit: Cond == nil means an
// unconditional transfer to Succs[0] (or function exit when Succs is
// empty); otherwise Succs[0] is the true edge and Succs[1] the false edge.
type Block struct {
	ID     int
	Phis   []*Instr
	Instrs []*Instr
	Cond   *Instr
	Succs  []*Block
	Preds  []*Block

	// Stmts lists the statements lowered (at least partly) into this
	// block, for unreachable-code reporting.
	Stmts []minic.Stmt
	// Nodes lists the statement-level nodes evaluated in this block, in
	// evaluation order: declarations, expression, empty and return
	// statements, branch and loop conditions, and for-post expressions.
	// The HD2xx dataflow lints read their access events from these.
	Nodes []minic.Node

	// Backstep marks a block whose unconditional successor edge is a loop
	// back-edge that the interpreter charges one extra step for (the
	// per-iteration steps++ at the bottom of While/For bodies). The
	// bytecode backend replicates the step-budget accounting from it.
	Backstep bool
	// Launch marks a block that ends at a kernel launch point (see
	// BuildFragment): it has no successors, and a run that reaches its
	// end stops there.
	Launch bool

	// Dominator-tree fields, filled by computeDominators.
	idom     *Block
	children []*Block
	frontier []*Block
	rpo      int // reverse-postorder index; -1 = unreachable
}

// Func is one lowered function.
type Func struct {
	Decl   *minic.FuncDecl
	Blocks []*Block
	Entry  *Block
	Vars   []*Var
	// Rets lists return-value instructions (liveness roots).
	Rets []*Instr

	varOf map[*minic.Symbol]*Var
	// Exprs maps each lowered AST expression to what lowering recorded
	// for it.
	Exprs map[minic.Expr]Lowered
	// stmts is the rewrite index's record of each lowered statement.
	stmts map[minic.Stmt]stmtInfo

	instrs []*Instr // all instructions, for iteration
	nextID int
}

// Lowered is what lowering recorded for one AST expression.
type Lowered struct {
	// Instr produces the expression's value.
	Instr *Instr
	// slot holds an rvalue expression, so a pass can replace it with a
	// literal or a temp read. Lvalue positions (assignment, inc/dec and &
	// targets, index bases) and __sizeof_var arguments get none and are
	// never replaced.
	slot *minic.Expr
}

// VarFor returns the tracked Var for a symbol, or nil if the symbol is
// untracked (global, array, pointer, address-taken, or demoted).
func (f *Func) VarFor(sym *minic.Symbol) *Var { return f.varOf[sym] }

// lowerer carries the state of one function lowering.
type lowerer struct {
	f    *Func
	cur  *Block
	stmt minic.Stmt // statement currently being lowered
	brk  []*Block
	cont []*Block
	// contStep parallels cont: true when a continue edge to the target is
	// a While back-edge (which the interpreter charges a step for).
	contStep []bool
	demoted  map[*minic.Symbol]bool
	// demoteFn, when non-nil, additionally demotes symbols (fragment
	// builds demote everything declared outside the fragment).
	demoteFn func(*minic.Symbol) bool
	// launch is the pragma that lowers to a launch point, or nil.
	launch *minic.PragmaStmt
	// entries counts the expressions entered since the last emit.
	entries int32
}

// Build lowers fn into CFG+SSA form: basic blocks of instructions over
// tracked scalar variables, minimal phi placement at iterated dominance
// frontiers, and def-use chains via OpLoad/OpPhi arguments. The same walk
// records the optimizer's rewrite index: each rvalue's slot in Exprs, and
// each statement's in stmts.
func Build(fn *minic.FuncDecl) *Func { return BuildFragment(fn, nil, nil) }

// BuildFragment is Build with an extra demotion predicate and a launch
// point. Any symbol for which demote returns true is kept untracked
// (object-backed): the bytecode backend lowers GPU kernel fragments whose
// free variables live in a host-populated frame rather than SSA
// registers, and a kernel's host entry, which hands those variables'
// objects over at its launch point. launch, when non-nil, is a pragma of
// fn that lowers to that launch point: the block that reaches it is
// marked Launch and ends there, and the pragma's body is not lowered.
func BuildFragment(fn *minic.FuncDecl, demote func(*minic.Symbol) bool, launch *minic.PragmaStmt) *Func {
	f := &Func{
		Decl:  fn,
		varOf: map[*minic.Symbol]*Var{},
		Exprs: map[minic.Expr]Lowered{},
		stmts: map[minic.Stmt]stmtInfo{},
	}
	lw := &lowerer{f: f, demoted: demotedSyms(fn), demoteFn: demote, launch: launch}
	lw.cur = lw.newBlock()
	f.Entry = lw.cur

	// Parameters are tracked when scalar; their incoming values are
	// opaque definitions in the entry block.
	for _, p := range fn.Params {
		if v := lw.trackedVar(p.Sym); v != nil {
			lw.emit(&Instr{Op: OpParam, Var: v})
		}
	}
	lw.lowerStmt(fn.Body, stmtInfo{})

	computeDominators(f)
	placePhis(f)
	rename(f)
	return f
}

// demotedSyms scans fn for symbols that cannot be tracked: address-taken
// variables and variables defined inside conditionally-evaluated
// subexpressions (&&/|| right operands, ?: arms), where a definition may
// or may not execute.
func demotedSyms(fn *minic.FuncDecl) map[*minic.Symbol]bool {
	out := map[*minic.Symbol]bool{}
	var expr func(e minic.Expr, conditional bool)
	demoteTarget := func(e minic.Expr) {
		if id, ok := e.(*minic.Ident); ok && id.Sym != nil {
			out[id.Sym] = true
		}
	}
	expr = func(e minic.Expr, conditional bool) {
		switch x := e.(type) {
		case nil:
		case *minic.Unary:
			if x.Op == "&" {
				demoteTarget(x.X)
			}
			if conditional && (x.Op == "++" || x.Op == "--") {
				demoteTarget(x.X)
			}
			expr(x.X, conditional)
		case *minic.Postfix:
			if conditional {
				demoteTarget(x.X)
			}
			expr(x.X, conditional)
		case *minic.Binary:
			if x.Op == "&&" || x.Op == "||" {
				expr(x.L, conditional)
				expr(x.R, true)
			} else {
				expr(x.L, conditional)
				expr(x.R, conditional)
			}
		case *minic.Assign:
			if conditional {
				demoteTarget(x.L)
			}
			expr(x.L, conditional)
			expr(x.R, conditional)
		case *minic.Cond:
			expr(x.C, conditional)
			expr(x.T, true)
			expr(x.F, true)
		case *minic.Call:
			for _, a := range x.Args {
				expr(a, conditional)
			}
		case *minic.Index:
			expr(x.X, conditional)
			expr(x.Idx, conditional)
		case *minic.Cast:
			expr(x.X, conditional)
		}
	}
	minic.WalkStmts(fn.Body, func(s minic.Stmt) {
		minic.StmtExprs(s, func(e minic.Expr) { expr(e, false) })
	})
	return out
}

// trackedVar returns (creating on first use) the Var for sym, or nil when
// sym is untracked.
func (lw *lowerer) trackedVar(sym *minic.Symbol) *Var {
	if sym == nil || sym.Global || lw.demoted[sym] {
		return nil
	}
	if lw.demoteFn != nil && lw.demoteFn(sym) {
		return nil
	}
	if sym.Kind != minic.SymVar && sym.Kind != minic.SymParam {
		return nil
	}
	t := sym.Type
	if t == nil || !t.IsNumeric() {
		return nil
	}
	if v, ok := lw.f.varOf[sym]; ok {
		return v
	}
	v := &Var{ID: len(lw.f.Vars), Sym: sym, Type: t}
	lw.f.Vars = append(lw.f.Vars, v)
	lw.f.varOf[sym] = v
	return v
}

func (lw *lowerer) newBlock() *Block {
	b := &Block{ID: len(lw.f.Blocks), rpo: -1}
	lw.f.Blocks = append(lw.f.Blocks, b)
	return b
}

func edge(from, to *Block) {
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

func (lw *lowerer) emit(in *Instr) *Instr {
	in.ID = lw.f.nextID
	lw.f.nextID++
	in.Block = lw.cur
	in.Stmt = lw.stmt
	in.Entries, lw.entries = lw.entries, 0
	lw.cur.Instrs = append(lw.cur.Instrs, in)
	lw.f.instrs = append(lw.f.instrs, in)
	return in
}

// last returns the most recently emitted instruction. Expression lowering
// never opens a block and always emits, so after lowering an operand it
// is that operand's last instruction.
func (lw *lowerer) last() *Instr { return lw.cur.Instrs[len(lw.cur.Instrs)-1] }

func (lw *lowerer) konst(c interp.Value) *Instr {
	return lw.emit(&Instr{Op: OpConst, Val: c})
}

// node appends a statement-level node to the current block.
func (lw *lowerer) node(n minic.Node) { lw.cur.Nodes = append(lw.cur.Nodes, n) }

// lowerStmt lowers one statement into the current block, creating blocks
// as control flow requires. at holds the statement's slot and block
// position; lowerStmt completes it and records it in the rewrite index.
func (lw *lowerer) lowerStmt(s minic.Stmt, at stmtInfo) {
	if s == nil {
		return
	}
	prev := lw.stmt
	lw.stmt = s
	defer func() { lw.stmt = prev }()
	lw.cur.Stmts = append(lw.cur.Stmts, s)
	if _, ok := s.(*minic.PragmaStmt); ok {
		at.slot = nil // protected, like its body (see stmtInfo.slot)
	}
	lw.f.stmts[s] = at

	switch st := s.(type) {
	case *minic.Block:
		for i := range st.Stmts {
			lw.lowerStmt(st.Stmts[i], stmtInfo{slot: &st.Stmts[i], blk: st, idx: i})
		}
	case *minic.EmptyStmt:
		lw.node(s)
	case *minic.PragmaStmt:
		if st == lw.launch {
			lw.cur.Launch = true
			lw.cur = lw.newBlock() // unreachable continuation
			break
		}
		lw.lowerStmt(st.Body, stmtInfo{})
	case *minic.DeclStmt:
		lw.node(s)
		for _, d := range st.Decls {
			v := lw.trackedVar(d.Sym)
			switch {
			case v != nil && d.Init != nil:
				r := lw.lowerAt(&d.Init)
				lw.emit(&Instr{Op: OpStore, Var: v, Args: []*Instr{r}, StoreKind: StoreDeclInit, Decl: d})
			case v != nil:
				lw.emit(&Instr{Op: OpDeclZero, Var: v})
			case d.Init != nil:
				r := lw.lowerAt(&d.Init)
				lw.emit(&Instr{Op: OpEffect, Args: []*Instr{r}, Decl: d})
			}
		}
	case *minic.ExprStmt:
		lw.node(s)
		lw.lowerAt(&st.X)
	case *minic.If:
		c := lw.lowerAt(&st.Cond)
		lw.node(st.Cond)
		condBlock := lw.cur
		condBlock.Cond = c
		thenB := lw.newBlock()
		join := lw.newBlock()
		edge(condBlock, thenB)
		if st.Else != nil {
			elseB := lw.newBlock()
			edge(condBlock, elseB)
			lw.cur = elseB
			lw.lowerStmt(st.Else, stmtInfo{slot: &st.Else})
			edge(lw.cur, join)
		} else {
			edge(condBlock, join)
		}
		lw.cur = thenB
		lw.lowerStmt(st.Then, stmtInfo{slot: &st.Then})
		edge(lw.cur, join)
		lw.cur = join
	case *minic.While:
		header := lw.newBlock()
		edge(lw.cur, header)
		lw.cur = header
		c := lw.lowerAt(&st.Cond)
		lw.node(st.Cond)
		head := lw.cur // short-circuit lowering stays in one block
		head.Cond = c
		body := lw.newBlock()
		exit := lw.newBlock()
		edge(head, body)
		edge(head, exit)
		lw.brk = append(lw.brk, exit)
		lw.cont = append(lw.cont, header)
		lw.contStep = append(lw.contStep, true)
		lw.cur = body
		lw.lowerStmt(st.Body, stmtInfo{slot: &st.Body})
		lw.cur.Backstep = true
		edge(lw.cur, header)
		lw.brk = lw.brk[:len(lw.brk)-1]
		lw.cont = lw.cont[:len(lw.cont)-1]
		lw.contStep = lw.contStep[:len(lw.contStep)-1]
		lw.cur = exit
	case *minic.For:
		lw.lowerStmt(st.Init, stmtInfo{slot: &st.Init})
		header := lw.newBlock()
		edge(lw.cur, header)
		lw.cur = header
		body := lw.newBlock()
		post := lw.newBlock()
		exit := lw.newBlock()
		edge(header, body)
		// for(;;) has no exit edge: only a break reaches exit.
		if st.Cond != nil {
			header.Cond = lw.lowerAt(&st.Cond)
			lw.node(st.Cond)
			edge(header, exit)
		}
		lw.brk = append(lw.brk, exit)
		lw.cont = append(lw.cont, post)
		lw.contStep = append(lw.contStep, false)
		lw.cur = body
		lw.lowerStmt(st.Body, stmtInfo{slot: &st.Body})
		edge(lw.cur, post)
		lw.cur = post
		if st.Post != nil {
			lw.lowerAt(&st.Post)
			lw.node(st.Post)
		}
		lw.cur.Backstep = true
		edge(lw.cur, header)
		lw.brk = lw.brk[:len(lw.brk)-1]
		lw.cont = lw.cont[:len(lw.cont)-1]
		lw.contStep = lw.contStep[:len(lw.contStep)-1]
		lw.cur = exit
	case *minic.Return:
		lw.node(s)
		if st.X != nil {
			r := lw.lowerAt(&st.X)
			lw.f.Rets = append(lw.f.Rets, r)
		}
		lw.cur = lw.newBlock() // unreachable continuation
	case *minic.Break:
		if n := len(lw.brk); n > 0 {
			edge(lw.cur, lw.brk[n-1])
		}
		lw.cur = lw.newBlock()
	case *minic.Continue:
		if n := len(lw.cont); n > 0 {
			if lw.contStep[n-1] {
				lw.cur.Backstep = true
			}
			edge(lw.cur, lw.cont[n-1])
		}
		lw.cur = lw.newBlock()
	}
}

// lowerAt lowers the rvalue expression held in *slot and records the slot
// in the rewrite index, so a pass can replace the expression in place.
func (lw *lowerer) lowerAt(slot *minic.Expr) *Instr { return lw.lower(*slot, slot) }

// lowerExpr lowers an expression that gets no slot.
func (lw *lowerer) lowerExpr(e minic.Expr) *Instr { return lw.lower(e, nil) }

// lower lowers e, held in slot when that is non-nil, and returns the
// instruction producing its value. Instructions are emitted in the
// interpreter's evaluation order. The rvalue operands of e get slots.
func (lw *lowerer) lower(e minic.Expr, slot *minic.Expr) *Instr {
	lw.entries++
	in := lw.lowerExprInner(e)
	if e != nil && in != nil {
		lw.f.Exprs[e] = Lowered{Instr: in, slot: slot}
	}
	return in
}

func (lw *lowerer) lowerExprInner(e minic.Expr) *Instr {
	switch x := e.(type) {
	case *minic.IntLit, *minic.CharLit, *minic.FloatLit:
		c, _ := litConst(e)
		return lw.konst(c)
	case *minic.SizeofType:
		return lw.konst(interp.IntVal(int64(x.Of.Size())))
	case *minic.StrLit:
		return lw.emit(&Instr{Op: OpLoadMem, Expr: e})
	case *minic.Ident:
		if v := lw.trackedVar(x.Sym); v != nil {
			return lw.emit(&Instr{Op: OpLoad, Var: v, Expr: e})
		}
		return lw.emit(&Instr{Op: OpLoadMem, Expr: e})
	case *minic.Unary:
		switch x.Op {
		case "&":
			lw.lowerLValueUses(x.X)
			return lw.emit(&Instr{Op: OpLoadMem, Expr: e})
		case "*":
			p := lw.lowerAt(&x.X)
			return lw.emit(&Instr{Op: OpLoadMem, Args: []*Instr{p}, Expr: e, Trap: true})
		case "-", "!", "~":
			a := lw.lowerAt(&x.X)
			return lw.emit(&Instr{Op: OpUnary, OpStr: x.Op, Args: []*Instr{a}, Expr: e})
		case "++", "--":
			return lw.lowerIncDec(x.X, x.Op, false, e)
		}
		return lw.emit(&Instr{Op: OpEffect, Expr: e})
	case *minic.Postfix:
		return lw.lowerIncDec(x.X, x.Op, true, e)
	case *minic.Binary:
		if x.Op == "&&" || x.Op == "||" {
			l := lw.lowerAt(&x.L)
			lEnd := lw.last()
			r := lw.lowerAt(&x.R)
			return lw.emit(&Instr{Op: OpLogic, OpStr: x.Op, Args: []*Instr{l, r}, Ends: [2]*Instr{lEnd}, Expr: e})
		}
		l := lw.lowerAt(&x.L)
		r := lw.lowerAt(&x.R)
		return lw.emit(&Instr{Op: OpBinary, OpStr: x.Op, Args: []*Instr{l, r}, Expr: e})
	case *minic.Assign:
		if id, ok := x.L.(*minic.Ident); ok {
			if v := lw.trackedVar(id.Sym); v != nil {
				if x.Op == "=" {
					r := lw.lowerAt(&x.R)
					lw.emit(&Instr{Op: OpStore, Var: v, Args: []*Instr{r}, Expr: e, StoreKind: StoreAssign, Assign: x})
					return r
				}
				r := lw.lowerAt(&x.R)
				cur := lw.emit(&Instr{Op: OpLoad, Var: v})
				rv := lw.emit(&Instr{Op: OpBinary, OpStr: x.Op[:len(x.Op)-1], Args: []*Instr{cur, r}, Expr: e})
				lw.emit(&Instr{Op: OpStore, Var: v, Args: []*Instr{rv}, StoreKind: StoreCompound})
				return rv
			}
		}
		// Untracked target: lvalue uses, rhs, opaque memory store.
		n := len(lw.cur.Instrs)
		lw.lowerLValueUses(x.L)
		var target *Instr
		if len(lw.cur.Instrs) > n {
			target = lw.last()
		}
		r := lw.lowerAt(&x.R)
		eff := lw.emit(&Instr{Op: OpEffect, Args: []*Instr{r}, Ends: [2]*Instr{target}, Expr: e})
		if x.Op == "=" {
			return r
		}
		return eff
	case *minic.Cond:
		c := lw.lowerAt(&x.C)
		cEnd := lw.last()
		t := lw.lowerAt(&x.T)
		tEnd := lw.last()
		f := lw.lowerAt(&x.F)
		return lw.emit(&Instr{Op: OpSelect, Args: []*Instr{c, t, f}, Ends: [2]*Instr{cEnd, tEnd}, Expr: e})
	case *minic.Index:
		idx := lw.lowerAt(&x.Idx)
		base := lw.lowerExpr(x.X) // a location: no slot
		return lw.emit(&Instr{Op: OpLoadMem, Args: []*Instr{idx, base}, Expr: e, Trap: true})
	case *minic.Cast:
		a := lw.lowerAt(&x.X)
		return lw.emit(&Instr{Op: OpCast, To: x.To, Args: []*Instr{a}, Expr: e})
	case *minic.Call:
		if x.Name == "__sizeof_var" {
			if len(x.Args) == 1 {
				if id, ok := x.Args[0].(*minic.Ident); ok && id.Sym != nil && id.Sym.Type != nil {
					return lw.konst(interp.IntVal(int64(id.Sym.Type.Size())))
				}
			}
			return lw.emit(&Instr{Op: OpEffect, Expr: e})
		}
		args := make([]*Instr, len(x.Args))
		for i := range x.Args {
			args[i] = lw.lowerAt(&x.Args[i])
		}
		return lw.emit(&Instr{Op: OpCall, OpStr: x.Name, Args: args, Expr: e, Pure: pureCall(x)})
	}
	return lw.emit(&Instr{Op: OpEffect, Expr: e})
}

// lowerIncDec lowers ++/-- (prefix when postfix==false). The interpreter
// computes addInt(old, ±1), which matches binary +/- for non-pointer
// values; tracked variables are never pointers.
func (lw *lowerer) lowerIncDec(target minic.Expr, op string, postfix bool, e minic.Expr) *Instr {
	bin := "+"
	if op == "--" {
		bin = "-"
	}
	if id, ok := target.(*minic.Ident); ok {
		if v := lw.trackedVar(id.Sym); v != nil {
			old := lw.emit(&Instr{Op: OpLoad, Var: v})
			one := lw.konst(interp.IntVal(1))
			nv := lw.emit(&Instr{Op: OpBinary, OpStr: bin, Args: []*Instr{old, one}, Expr: e})
			lw.emit(&Instr{Op: OpStore, Var: v, Args: []*Instr{nv}, StoreKind: StoreCompound})
			if postfix {
				return old
			}
			return nv
		}
	}
	lw.lowerLValueUses(target)
	return lw.emit(&Instr{Op: OpEffect, Expr: e})
}

// lowerLValueUses lowers the value reads inside an lvalue expression (index
// expressions, pointer operands) without modeling the location itself.
func (lw *lowerer) lowerLValueUses(e minic.Expr) {
	switch x := e.(type) {
	case *minic.Ident:
	case *minic.Index:
		lw.lowerAt(&x.Idx)
		lw.lowerExpr(x.X)
	case *minic.Unary:
		if x.Op == "*" {
			lw.lowerAt(&x.X)
		}
	}
}

// pureCall reports whether x calls a builtin on interp's purity table.
func pureCall(x *minic.Call) bool {
	_, ok := interp.PureKind(x.Name)
	return x.Builtin && ok
}
