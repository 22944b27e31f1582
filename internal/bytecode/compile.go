package bytecode

import (
	"fmt"
	"math"

	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/minic"
)

// The compiler lowers a fresh (unoptimized) ir.Build of each function's
// final AST — the optimizer has already rewritten the AST in place, so the
// IR reflects its output — into flat register code. Exact cost parity with
// the tree-walker is the load-bearing property:
//
//   - Per-expression Op(1) charges are recovered by inverting the IR's
//     ExprInstr map: the number of expressions an instruction produces the
//     value for is the number of eval-entry ops it carries.
//   - Per-statement step+Op(1) charges come from merging each block's
//     Stmts list into its instruction stream (a statement's charge fires
//     before its first instruction).
//   - Charges batch into pending counters flushed as one `charge`
//     instruction before every call, conditional-region boundary, and
//     block terminator — so at every call boundary (exit() terminations,
//     getRecord record grants) the charged totals equal the walker's.
//   - Load/Store charges ride on the memory opcodes themselves.
//
// A construct the compiler cannot lower exactly is a compile error that
// names the function.

// Compile lowers every function of a semantically-analyzed program.
func Compile(prog *minic.Program) (*Program, error) {
	b := newBuilder(false)
	for _, fn := range prog.Funcs {
		if err := b.addFn(fn, nil, nil); err != nil {
			return nil, err
		}
	}
	return b.prog, nil
}

// CompileFragmentExpr compiles a kernel condition expression (the mapper
// while-loop condition) into a single-fn fragment program returning the
// expression value. Free symbols resolve through host-populated frame
// slots.
func CompileFragmentExpr(cond minic.Expr) (*Program, error) {
	if cond == nil {
		return nil, fmt.Errorf("bytecode: fragment has no condition")
	}
	ret := &minic.Return{X: cond}
	body := &minic.Block{Stmts: []minic.Stmt{ret}}
	// EvalIn charges no statement steps for the synthesized wrapper.
	skip := map[minic.Stmt]bool{body: true, ret: true}
	return compileFragment(&minic.FuncDecl{Name: "<cond>", Body: body}, body, skip)
}

// CompileFragmentStmt compiles a kernel region statement (the mapper loop
// body or the combiner region) into a fragment program. The statement
// itself is charged (ExecIn charges it); only the wrapper block is not.
func CompileFragmentStmt(region minic.Stmt) (*Program, error) {
	if region == nil {
		return nil, fmt.Errorf("bytecode: fragment has no statement")
	}
	body := &minic.Block{Stmts: []minic.Stmt{region}}
	skip := map[minic.Stmt]bool{body: true}
	return compileFragment(&minic.FuncDecl{Name: "<region>", Body: body}, body, skip)
}

func compileFragment(decl *minic.FuncDecl, body *minic.Block, skip map[minic.Stmt]bool) (*Program, error) {
	declared := map[*minic.Symbol]bool{}
	minic.WalkStmts(body, func(s minic.Stmt) {
		if d, ok := s.(*minic.DeclStmt); ok {
			for _, dc := range d.Decls {
				if dc.Sym != nil {
					declared[dc.Sym] = true
				}
			}
		}
	})
	demote := func(sym *minic.Symbol) bool { return !declared[sym] }

	b := newBuilder(true)
	if err := b.addFn(decl, demote, skip); err != nil {
		return nil, err
	}
	return b.prog, nil
}

// builder accumulates the shared pools of one Program. All interning is
// insertion-ordered, so emitted code is deterministic.
type builder struct {
	prog      *Program
	constIdx  map[interp.Value]int32
	strIdx    map[string]int32
	typeIdx   map[*minic.Type]int32
	symIdx    map[*minic.Symbol]int32
	allocIdx  map[*minic.Declarator]int32
	opIdx     map[string]int32
	calleeIdx map[Callee]int32
}

func newBuilder(fragment bool) *builder {
	return &builder{
		prog:      &Program{Main: -1, Fragment: fragment},
		constIdx:  map[interp.Value]int32{},
		strIdx:    map[string]int32{},
		typeIdx:   map[*minic.Type]int32{},
		symIdx:    map[*minic.Symbol]int32{},
		allocIdx:  map[*minic.Declarator]int32{},
		opIdx:     map[string]int32{},
		calleeIdx: map[Callee]int32{},
	}
}

func (b *builder) constant(v interp.Value) int32 {
	if i, ok := b.constIdx[v]; ok {
		return i
	}
	i := int32(len(b.prog.Consts))
	b.prog.Consts = append(b.prog.Consts, v)
	b.constIdx[v] = i
	return i
}

func (b *builder) str(s string) int32 {
	if i, ok := b.strIdx[s]; ok {
		return i
	}
	i := int32(len(b.prog.Strs))
	b.prog.Strs = append(b.prog.Strs, s)
	b.strIdx[s] = i
	return i
}

func (b *builder) typeRef(t *minic.Type) int32 {
	if i, ok := b.typeIdx[t]; ok {
		return i
	}
	i := int32(len(b.prog.Types))
	b.prog.Types = append(b.prog.Types, t)
	b.typeIdx[t] = i
	return i
}

func (b *builder) sym(s *minic.Symbol) int32 {
	if i, ok := b.symIdx[s]; ok {
		return i
	}
	i := int32(len(b.prog.Syms))
	b.prog.Syms = append(b.prog.Syms, s)
	b.symIdx[s] = i
	return i
}

func (b *builder) operator(op string) int32 {
	if i, ok := b.opIdx[op]; ok {
		return i
	}
	i := int32(len(b.prog.Ops))
	b.prog.Ops = append(b.prog.Ops, op)
	b.opIdx[op] = i
	return i
}

func (b *builder) callee(c Callee) int32 {
	if i, ok := b.calleeIdx[c]; ok {
		return i
	}
	i := int32(len(b.prog.Callees))
	b.prog.Callees = append(b.prog.Callees, c)
	b.calleeIdx[c] = i
	return i
}

func (b *builder) alloc(d *minic.Declarator) (int32, error) {
	if i, ok := b.allocIdx[d]; ok {
		return i, nil
	}
	n, elem := 1, d.Type
	if d.Type != nil && d.Type.Kind == minic.TypeArray {
		n, elem = interp.FlattenArray(d.Type)
		if n < 0 {
			// The walker raises this only if the declaration executes;
			// the compiler rejects the whole function up front.
			return 0, fmt.Errorf("array %q has unspecified length", d.Name)
		}
	}
	if elem == nil {
		return 0, fmt.Errorf("declarator %q has no type", d.Name)
	}
	i := int32(len(b.prog.Allocs))
	b.prog.Allocs = append(b.prog.Allocs, AllocSpec{Sym: d.Sym, Elem: elem, N: int32(n), Name: d.Name})
	b.allocIdx[d] = i
	return i, nil
}

func (b *builder) addFn(decl *minic.FuncDecl, demote func(*minic.Symbol) bool, skip map[minic.Stmt]bool) error {
	fn, err := b.compileFn(decl, demote, skip)
	if err != nil {
		return fmt.Errorf("bytecode: cannot lower function %q: %w", decl.Name, err)
	}
	b.prog.Fns = append(b.prog.Fns, fn)
	if decl.Name == "main" {
		b.prog.Main = len(b.prog.Fns) - 1
	}
	return nil
}

// fnBuilder carries the state of one function's lowering.
type fnBuilder struct {
	b    *builder
	f    *ir.Func
	plan *ir.RegPlan
	fn   *Fn

	code []Instr
	pos  []minic.Pos

	pendingOps   int32
	pendingSteps int32

	// inv holds the eval-entry op count each instruction carries
	// (inverted ExprInstr map), consumed as charges are batched.
	inv map[*ir.Instr]int32
	// skipConst marks constants absorbed into addn immediates.
	skipConst map[*ir.Instr]bool
	skip      map[minic.Stmt]bool

	slotOf   map[*minic.Symbol]int32
	slotSyms []*minic.Symbol
	bound    map[*minic.Symbol]bool

	blockPC map[*ir.Block]int32
	patches []patch
	regions []regionFrame

	scratch0, scratch1 int32
}

type patch struct {
	pc      int
	operand int // 0=A 1=B 2=C
	target  *ir.Block
}

type regionFrame struct {
	in        *ir.Instr
	brPC      int
	brOperand int // operand of the br that jumps to the short/false label
	jmpPC     int // select: jmp after the then-arm, patched to region end
}

func (b *builder) compileFn(decl *minic.FuncDecl, demote func(*minic.Symbol) bool, skip map[minic.Stmt]bool) (*Fn, error) {
	f := ir.BuildFragment(decl, demote)
	addLValueUses(f)
	plan := ir.AllocateRegisters(f)
	fb := &fnBuilder{
		b:         b,
		f:         f,
		plan:      plan,
		inv:       map[*ir.Instr]int32{},
		skipConst: map[*ir.Instr]bool{},
		skip:      skip,
		slotOf:    map[*minic.Symbol]int32{},
		bound:     map[*minic.Symbol]bool{},
		blockPC:   map[*ir.Block]int32{},
		scratch0:  int32(plan.NumRegs),
		scratch1:  int32(plan.NumRegs) + 1,
	}
	// Map iteration is safe here: counts accumulate commutatively.
	for _, in := range f.ExprInstr {
		fb.inv[in]++
	}
	fb.markAbsorbedConsts()

	// The walker's m.call runs the function body's statement list without
	// charging the body block itself as a statement.
	if fb.skip == nil {
		fb.skip = map[minic.Stmt]bool{}
	}
	if decl.Body != nil {
		fb.skip[decl.Body] = true
	}

	fn := &Fn{
		Name:    decl.Name,
		Decl:    decl,
		Ret:     decl.Ret,
		NumRegs: int32(plan.NumRegs) + 2,
	}
	// Parameters: tracked scalars arrive in registers, demoted ones in
	// fresh per-call objects (the walker allocates one per parameter).
	for _, p := range decl.Params {
		prm := Param{Reg: -1, Slot: -1, Sym: p.Sym, Type: p.Type}
		if v := f.VarFor(p.Sym); v != nil {
			prm.Reg = int32(plan.VarReg(v))
		} else {
			prm.Slot = fb.slot(p.Sym)
			fb.bound[p.Sym] = true
		}
		fn.Params = append(fn.Params, prm)
	}

	for _, blk := range f.Blocks {
		if !blk.Reachable() {
			continue
		}
		if err := fb.emitBlock(blk); err != nil {
			return nil, err
		}
	}
	for _, p := range fb.patches {
		pc, ok := fb.blockPC[p.target]
		if !ok {
			return nil, fmt.Errorf("jump to unemitted block")
		}
		switch p.operand {
		case 0:
			fb.code[p.pc].A = pc
		case 1:
			fb.code[p.pc].B = pc
		default:
			fb.code[p.pc].C = pc
		}
	}
	// Free symbols (fragment slots never bound by alloc or parameter)
	// must be host-populated; whole-program functions have none.
	for _, sym := range fb.slotSyms {
		if fb.bound[sym] {
			continue
		}
		if !b.prog.Fragment {
			return nil, fmt.Errorf("unbound object slot for %q", sym.Name)
		}
		b.prog.Free = append(b.prog.Free, FreeRef{Sym: sym, Slot: fb.slotOf[sym]})
	}
	fn.Code = fb.code
	fn.Pos = fb.pos
	fn.NumObjSlots = int32(len(fb.slotSyms))
	return fn, nil
}

// addLValueUses registers the hidden register reads of opaque lvalue
// writes. OpEffect (untracked assignment, ++/--) and address-of OpLoadMem
// instructions consume the registers of their lvalue's index/base/pointer
// subexpressions without listing them as IR arguments; appending them as
// extra trailing args extends their live ranges so the register allocator
// does not recycle them early. Expansion reads positional args only from
// the front, so the extras are liveness-only.
func addLValueUses(f *ir.Func) {
	components := func(lv minic.Expr) []minic.Expr {
		switch t := lv.(type) {
		case *minic.Index:
			return []minic.Expr{t.Idx, t.X}
		case *minic.Unary:
			if t.Op == "*" {
				return []minic.Expr{t.X}
			}
		}
		return nil
	}
	for _, blk := range f.Blocks {
		for _, in := range blk.Instrs {
			var lv minic.Expr
			switch in.Op {
			case ir.OpEffect:
				switch x := in.Expr.(type) {
				case *minic.Assign:
					lv = x.L
				case *minic.Unary:
					if x.Op == "++" || x.Op == "--" {
						lv = x.X
					}
				case *minic.Postfix:
					lv = x.X
				}
			case ir.OpLoadMem:
				if u, ok := in.Expr.(*minic.Unary); ok && u.Op == "&" {
					lv = u.X
				}
			default:
				continue
			}
			for _, c := range components(lv) {
				if ci, ok := f.ExprInstr[c]; ok {
					in.Args = append(in.Args, ci)
				}
			}
		}
	}
}

// markAbsorbedConsts finds int constants consumed only as the rhs of a
// +/- binary (lowered to addn immediates) so their const loads are
// skipped. Their eval-entry charges still batch normally.
func (fb *fnBuilder) markAbsorbedConsts() {
	uses := map[*ir.Instr]int{}
	for _, blk := range fb.f.Blocks {
		for _, in := range blk.Instrs {
			if in.Op == ir.OpPhi || in.Op == ir.OpLoad {
				continue
			}
			for _, a := range in.Args {
				uses[a]++
			}
		}
		if blk.Cond != nil {
			uses[blk.Cond]++
		}
	}
	for _, r := range fb.f.Rets {
		uses[r]++
	}
	for _, blk := range fb.f.Blocks {
		for _, in := range blk.Instrs {
			if _, ok := addnDelta(in); ok {
				c := in.Args[1]
				uses[c]--
				if uses[c] == 0 {
					fb.skipConst[c] = true
				}
			}
		}
	}
}

// addnDelta reports whether a binary lowers to addn with an immediate.
func addnDelta(in *ir.Instr) (int32, bool) {
	if in.Op != ir.OpBinary || (in.OpStr != "+" && in.OpStr != "-") {
		return 0, false
	}
	if len(in.Args) != 2 || in.Args[1].Op != ir.OpConst || in.Args[1].Val.Kind != ir.ConstInt {
		return 0, false
	}
	c := in.Args[1].Val.I
	if c < -math.MaxInt32 || c > math.MaxInt32 {
		return 0, false
	}
	d := int32(c)
	if in.OpStr == "-" {
		d = -d
	}
	return d, true
}

func (fb *fnBuilder) emit(op Op, a, b, c, d int32) int {
	fb.code = append(fb.code, Instr{Op: op, A: a, B: b, C: c, D: d})
	fb.pos = append(fb.pos, minic.Pos{})
	return len(fb.code) - 1
}

func (fb *fnBuilder) setPos(pc int, p minic.Pos) { fb.pos[pc] = p }

func (fb *fnBuilder) flush() {
	if fb.pendingOps == 0 && fb.pendingSteps == 0 {
		return
	}
	fb.emit(OpCharge, fb.pendingOps, fb.pendingSteps, 0, 0)
	fb.pendingOps, fb.pendingSteps = 0, 0
}

// takeCharge moves an instruction's eval-entry ops into the pending batch.
func (fb *fnBuilder) takeCharge(in *ir.Instr) {
	if c := fb.inv[in]; c > 0 {
		fb.pendingOps += c
		fb.inv[in] = 0
	}
}

// reg returns the frame register holding in's result.
func (fb *fnBuilder) reg(in *ir.Instr) (int32, error) {
	switch in.Op {
	case ir.OpStore, ir.OpPhi, ir.OpDeclZero, ir.OpParam:
		if in.Var == nil {
			return 0, fmt.Errorf("definition without variable")
		}
		return int32(fb.plan.VarReg(in.Var)), nil
	}
	r, ok := fb.plan.TempReg(in)
	if !ok {
		return 0, fmt.Errorf("instruction without register")
	}
	return int32(r), nil
}

// exprReg returns the register holding a lowered AST expression's value.
func (fb *fnBuilder) exprReg(e minic.Expr) (int32, error) {
	in, ok := fb.f.ExprInstr[e]
	if !ok {
		return 0, fmt.Errorf("expression %T not lowered", e)
	}
	return fb.reg(in)
}

func (fb *fnBuilder) slot(sym *minic.Symbol) int32 {
	if s, ok := fb.slotOf[sym]; ok {
		return s
	}
	s := int32(len(fb.slotSyms))
	fb.slotOf[sym] = s
	fb.slotSyms = append(fb.slotSyms, sym)
	return s
}

// objRef encodes where a symbol's object lives: global symbol pool index
// (>= 0) or frame slot (< 0). Fragments route every free symbol through
// the frame so host bindings (GPU privatized/shared objects) win, exactly
// like the walker's frame-before-globals lookup order.
func (fb *fnBuilder) objRef(sym *minic.Symbol) (int32, error) {
	if sym == nil {
		return 0, fmt.Errorf("unresolved identifier")
	}
	if sym.Global && !fb.b.prog.Fragment {
		return fb.b.sym(sym), nil
	}
	return -fb.slot(sym) - 1, nil
}

func (fb *fnBuilder) emitBlock(blk *ir.Block) error {
	fb.blockPC[blk] = int32(len(fb.code))
	openAt := map[int]*ir.Instr{}
	switchAt := map[int]*ir.Instr{}
	idxOf := map[*ir.Instr]int{}
	for i, in := range blk.Instrs {
		idxOf[in] = i
	}
	for _, in := range blk.Instrs {
		switch in.Op {
		case ir.OpLogic:
			li, ok := idxOf[in.Ends[0]]
			if !ok {
				return fmt.Errorf("short-circuit operand outside block")
			}
			if openAt[li+1] != nil || switchAt[li+1] != nil {
				return fmt.Errorf("conditional region collision")
			}
			openAt[li+1] = in
		case ir.OpSelect:
			ci, ok := idxOf[in.Ends[0]]
			if !ok {
				return fmt.Errorf("select condition outside block")
			}
			ti, ok := idxOf[in.Ends[1]]
			if !ok {
				return fmt.Errorf("select arm outside block")
			}
			if openAt[ci+1] != nil || switchAt[ci+1] != nil || openAt[ti+1] != nil || switchAt[ti+1] != nil {
				return fmt.Errorf("conditional region collision")
			}
			openAt[ci+1] = in
			switchAt[ti+1] = in
		}
	}

	si := 0
	var curStmt minic.Stmt
	haveStmt := false
	for i, in := range blk.Instrs {
		if ev := switchAt[i]; ev != nil {
			if err := fb.selectSwitch(ev); err != nil {
				return err
			}
		}
		if ev := openAt[i]; ev != nil {
			if err := fb.openRegion(ev); err != nil {
				return err
			}
		}
		if !haveStmt || in.Stmt != curStmt {
			if in.Stmt != nil && stmtAhead(blk.Stmts, si, in.Stmt) {
				for si < len(blk.Stmts) {
					st := blk.Stmts[si]
					si++
					if err := fb.stmtEntry(st); err != nil {
						return err
					}
					if st == in.Stmt {
						break
					}
				}
			}
			curStmt, haveStmt = in.Stmt, true
		}
		if err := fb.emitInstr(in); err != nil {
			return err
		}
	}
	for si < len(blk.Stmts) {
		if err := fb.stmtEntry(blk.Stmts[si]); err != nil {
			return err
		}
		si++
	}
	if len(fb.regions) != 0 {
		return fmt.Errorf("unclosed conditional region")
	}
	return fb.emitTerminator(blk)
}

func stmtAhead(stmts []minic.Stmt, from int, s minic.Stmt) bool {
	for i := from; i < len(stmts); i++ {
		if stmts[i] == s {
			return true
		}
	}
	return false
}

// stmtEntry batches one statement's step+op entry charge and synthesizes
// object allocations for untracked init-less declarators (the walker
// allocates a fresh object every time the declaration executes).
func (fb *fnBuilder) stmtEntry(st minic.Stmt) error {
	if fb.skip[st] {
		return nil
	}
	fb.pendingSteps++
	fb.pendingOps++
	d, ok := st.(*minic.DeclStmt)
	if !ok {
		return nil
	}
	for _, dc := range d.Decls {
		if dc.Init != nil || fb.f.VarFor(dc.Sym) != nil {
			continue
		}
		if err := fb.emitAlloc(dc, -1); err != nil {
			return err
		}
	}
	return nil
}

func (fb *fnBuilder) emitAlloc(dc *minic.Declarator, initReg int32) error {
	if dc.Sym == nil {
		return fmt.Errorf("declarator %q unresolved", dc.Name)
	}
	spec, err := fb.b.alloc(dc)
	if err != nil {
		return err
	}
	ref, err := fb.objRef(dc.Sym)
	if err != nil {
		return err
	}
	if ref >= 0 {
		// Global declarations execute in initGlobals on the walker.
		return fmt.Errorf("allocation of global %q", dc.Name)
	}
	fb.bound[dc.Sym] = true
	fb.emit(OpAlloc, -ref-1, spec, initReg, 0)
	return nil
}

func (fb *fnBuilder) openRegion(ev *ir.Instr) error {
	// The walker charges the node's eval-entry op before evaluating
	// either operand; keep it in the unconditional segment.
	fb.takeCharge(ev)
	fb.flush()
	c, err := fb.reg(ev.Args[0])
	if err != nil {
		return err
	}
	switch ev.Op {
	case ir.OpLogic:
		pc := fb.emit(OpBr, c, 0, 0, 0)
		fr := regionFrame{in: ev, brPC: pc, jmpPC: -1}
		if ev.OpStr == "&&" {
			fb.code[pc].B = int32(pc + 1)
			fr.brOperand = 2
		} else {
			fb.code[pc].C = int32(pc + 1)
			fr.brOperand = 1
		}
		fb.regions = append(fb.regions, fr)
	case ir.OpSelect:
		pc := fb.emit(OpBr, c, 0, 0, 0)
		fb.code[pc].B = int32(pc + 1)
		fb.regions = append(fb.regions, regionFrame{in: ev, brPC: pc, brOperand: 2, jmpPC: -1})
	default:
		return fmt.Errorf("unexpected region opener")
	}
	return nil
}

func (fb *fnBuilder) selectSwitch(ev *ir.Instr) error {
	n := len(fb.regions)
	if n == 0 || fb.regions[n-1].in != ev {
		return fmt.Errorf("mismatched select region")
	}
	fb.flush() // then-arm charges stay inside the then path
	dst, err := fb.reg(ev)
	if err != nil {
		return err
	}
	t, err := fb.reg(ev.Args[1])
	if err != nil {
		return err
	}
	fb.emit(OpMove, dst, t, 0, 0)
	fb.regions[n-1].jmpPC = fb.emit(OpJmp, 0, 0, 0, 0)
	fb.code[fb.regions[n-1].brPC].C = int32(len(fb.code))
	return nil
}

func (fb *fnBuilder) closeRegion(in *ir.Instr) error {
	n := len(fb.regions)
	if n == 0 || fb.regions[n-1].in != in {
		return fmt.Errorf("mismatched region close")
	}
	fr := fb.regions[n-1]
	fb.regions = fb.regions[:n-1]
	fb.flush() // conditional-arm charges stay inside the arm
	dst, err := fb.reg(in)
	if err != nil {
		return err
	}
	switch in.Op {
	case ir.OpLogic:
		r, err := fb.reg(in.Args[1])
		if err != nil {
			return err
		}
		fb.emit(OpBool, dst, r, 0, 0)
		jend := fb.emit(OpJmp, 0, 0, 0, 0)
		short := int32(len(fb.code))
		if fr.brOperand == 1 {
			fb.code[fr.brPC].B = short
		} else {
			fb.code[fr.brPC].C = short
		}
		shortVal := int64(0)
		if in.OpStr == "||" {
			shortVal = 1
		}
		fb.emit(OpConst, dst, fb.b.constant(interp.IntVal(shortVal)), 0, 0)
		fb.code[jend].A = int32(len(fb.code))
	case ir.OpSelect:
		if fr.jmpPC < 0 {
			return fmt.Errorf("select region missing arm switch")
		}
		f, err := fb.reg(in.Args[2])
		if err != nil {
			return err
		}
		fb.emit(OpMove, dst, f, 0, 0)
		fb.code[fr.jmpPC].A = int32(len(fb.code))
	}
	return nil
}

func (fb *fnBuilder) emitTerminator(blk *ir.Block) error {
	switch {
	case blk.Cond != nil:
		if len(blk.Succs) != 2 {
			return fmt.Errorf("conditional block without two successors")
		}
		c, err := fb.reg(blk.Cond)
		if err != nil {
			return err
		}
		fb.flush()
		pc := fb.emit(OpBr, c, 0, 0, 0)
		fb.patches = append(fb.patches, patch{pc: pc, operand: 1, target: blk.Succs[0]})
		fb.patches = append(fb.patches, patch{pc: pc, operand: 2, target: blk.Succs[1]})
	case len(blk.Succs) == 1:
		if blk.Backstep {
			// The walker's per-iteration steps++ at the loop bottom.
			fb.pendingSteps++
		}
		fb.flush()
		pc := fb.emit(OpJmp, 0, 0, 0, 0)
		fb.patches = append(fb.patches, patch{pc: pc, operand: 0, target: blk.Succs[0]})
	case len(blk.Succs) == 0:
		if n := len(blk.Stmts); n > 0 {
			if ret, ok := blk.Stmts[n-1].(*minic.Return); ok {
				fb.flush()
				if ret.X != nil {
					r, err := fb.exprReg(ret.X)
					if err != nil {
						return err
					}
					fb.emit(OpRet, r, 0, 0, 0)
				} else {
					fb.emit(OpZero, fb.scratch0, 0, 0, 0)
					fb.emit(OpRet, fb.scratch0, 0, 0, 0)
				}
				return nil
			}
		}
		fb.flush()
		fb.emit(OpRetZ, 0, 0, 0, 0)
	default:
		return fmt.Errorf("unexpected block shape")
	}
	return nil
}

func (fb *fnBuilder) emitInstr(in *ir.Instr) error {
	switch in.Op {
	case ir.OpLogic, ir.OpSelect:
		// Entry charge was consumed at region open.
		return fb.closeRegion(in)
	}
	fb.takeCharge(in)
	switch in.Op {
	case ir.OpParam, ir.OpPhi:
		return nil
	case ir.OpConst:
		if fb.skipConst[in] {
			return nil
		}
		dst, err := fb.reg(in)
		if err != nil {
			return err
		}
		fb.emit(OpConst, dst, fb.b.constant(constValue(in.Val)), 0, 0)
	case ir.OpDeclZero:
		r, err := fb.reg(in)
		if err != nil {
			return err
		}
		fb.emit(OpZero, r, 0, 0, 0)
	case ir.OpLoad:
		dst, err := fb.reg(in)
		if err != nil {
			return err
		}
		if in.Var == nil {
			return fmt.Errorf("load without variable")
		}
		fb.emit(OpLoadV, dst, int32(fb.plan.VarReg(in.Var)), fb.b.sym(in.Var.Sym), 0)
	case ir.OpStore:
		dst, err := fb.reg(in)
		if err != nil {
			return err
		}
		src, err := fb.reg(in.Args[0])
		if err != nil {
			return err
		}
		fb.emit(OpStoreV, dst, src, fb.b.sym(in.Var.Sym), 0)
	case ir.OpUnary:
		return fb.emitUnary(in)
	case ir.OpBinary:
		return fb.emitBinary(in)
	case ir.OpCast:
		dst, err := fb.reg(in)
		if err != nil {
			return err
		}
		src, err := fb.reg(in.Args[0])
		if err != nil {
			return err
		}
		fb.emit(OpCvt, dst, src, fb.b.typeRef(in.To), 0)
	case ir.OpCall:
		return fb.emitCall(in)
	case ir.OpLoadMem:
		return fb.emitLoadMem(in)
	case ir.OpEffect:
		return fb.emitEffect(in)
	default:
		return fmt.Errorf("unhandled IR op")
	}
	return nil
}

func constValue(c ir.Const) interp.Value {
	if c.Kind == ir.ConstFloat {
		return interp.FloatVal(c.F)
	}
	return interp.IntVal(c.I)
}

func (fb *fnBuilder) emitUnary(in *ir.Instr) error {
	dst, err := fb.reg(in)
	if err != nil {
		return err
	}
	src, err := fb.reg(in.Args[0])
	if err != nil {
		return err
	}
	switch in.OpStr {
	case "-":
		fb.emit(OpNeg, dst, src, 0, 0)
	case "!":
		fb.emit(OpNot, dst, src, 0, 0)
	case "~":
		fb.emit(OpBnot, dst, src, 0, 0)
	default:
		return fmt.Errorf("unhandled unary %q", in.OpStr)
	}
	return nil
}

func (fb *fnBuilder) emitBinary(in *ir.Instr) error {
	dst, err := fb.reg(in)
	if err != nil {
		return err
	}
	l, err := fb.reg(in.Args[0])
	if err != nil {
		return err
	}
	if d, ok := addnDelta(in); ok {
		// interp.AddInt(x, d) equals ApplyBinary("±", x, const) for every
		// value kind (int wrap, float add, pointer offset), so +/- with
		// an int immediate skips the const load entirely.
		fb.emit(OpAddN, dst, l, d, 0)
		return nil
	}
	r, err := fb.reg(in.Args[1])
	if err != nil {
		return err
	}
	var lt, rt *minic.Type
	switch e := in.Expr.(type) {
	case *minic.Binary:
		lt, rt = e.L.Type(), e.R.Type()
	case *minic.Assign:
		lt, rt = e.L.Type(), e.R.Type()
	case *minic.Unary:
		lt = e.X.Type()
	case *minic.Postfix:
		lt = e.X.Type()
	}
	op := typedBinOp(in.OpStr, lt, rt)
	if op == OpBin {
		fb.emit(OpBin, dst, l, r, fb.b.operator(in.OpStr))
	} else {
		fb.emit(op, dst, l, r, 0)
	}
	return nil
}

func floatish(t *minic.Type) bool {
	return t != nil && (t.Kind == minic.TypeFloat || t.Kind == minic.TypeDouble)
}

func ptrish(t *minic.Type) bool {
	return t != nil && (t.Kind == minic.TypePointer || t.Kind == minic.TypeArray)
}

// typedBinOp selects the fast-path opcode from static operand types. The
// choice only affects speed: every typed opcode guards its value kinds
// and falls back to interp.ApplyBinary on mismatch.
func typedBinOp(op string, lt, rt *minic.Type) Op {
	if ptrish(lt) || ptrish(rt) {
		return OpBin
	}
	fl := floatish(lt) || floatish(rt)
	switch op {
	case "+":
		if fl {
			return OpAddF
		}
		return OpAddI
	case "-":
		if fl {
			return OpSubF
		}
		return OpSubI
	case "*":
		if fl {
			return OpMulF
		}
		return OpMulI
	case "/":
		if fl {
			return OpDivF
		}
		return OpDivI
	case "%":
		return OpModI
	case "&":
		return OpAndI
	case "|":
		return OpOrI
	case "^":
		return OpXorI
	case "<<":
		return OpShlI
	case ">>":
		return OpShrI
	case "==":
		if fl {
			return OpEqF
		}
		return OpEqI
	case "!=":
		if fl {
			return OpNeF
		}
		return OpNeI
	case "<":
		if fl {
			return OpLtF
		}
		return OpLtI
	case "<=":
		if fl {
			return OpLeF
		}
		return OpLeI
	case ">":
		if fl {
			return OpGtF
		}
		return OpGtI
	case ">=":
		if fl {
			return OpGeF
		}
		return OpGeI
	}
	return OpBin
}

func (fb *fnBuilder) emitCall(in *ir.Instr) error {
	call, ok := in.Expr.(*minic.Call)
	if !ok {
		return fmt.Errorf("call without AST anchor")
	}
	dst, err := fb.reg(in)
	if err != nil {
		return err
	}
	// Flush so cost totals are exact at the call boundary: exit() is a
	// successful termination whose totals feed goldens, and getRecord is
	// the GPU record-grant boundary.
	fb.flush()
	for _, a := range in.Args {
		r, err := fb.reg(a)
		if err != nil {
			return err
		}
		fb.emit(OpArg, r, 0, 0, 0)
	}
	ci := fb.b.callee(Callee{Name: call.Name, Builtin: call.Builtin})
	fb.emit(OpCall, dst, ci, int32(len(in.Args)), 0)
	return nil
}

func (fb *fnBuilder) emitLoadMem(in *ir.Instr) error {
	dst, err := fb.reg(in)
	if err != nil {
		return err
	}
	switch x := in.Expr.(type) {
	case *minic.StrLit:
		fb.emit(OpStr, dst, fb.b.str(x.Value), 0, 0)
	case *minic.Ident:
		return fb.emitIdentLoad(dst, x)
	case *minic.Unary:
		switch x.Op {
		case "*":
			p, err := fb.reg(in.Args[0])
			if err != nil {
				return err
			}
			pc := fb.emit(OpLoadP, dst, p, 0, 1)
			fb.setPos(pc, x.Pos)
		case "&":
			return fb.emitAddr(dst, x.X)
		default:
			return fmt.Errorf("unhandled lvalue unary %q", x.Op)
		}
	case *minic.Index:
		idx, err := fb.reg(in.Args[0])
		if err != nil {
			return err
		}
		base, err := fb.reg(in.Args[1])
		if err != nil {
			return err
		}
		pc := fb.emit(OpIdx, dst, idx, base, indexStride(x))
		fb.setPos(pc, x.Pos)
		if t := x.Type(); t != nil && t.Kind == minic.TypeArray {
			// A row of a multi-dimensional array decays to a pointer.
			return nil
		}
		fb.emit(OpLoadP, dst, dst, 0, 0)
	default:
		return fmt.Errorf("unhandled memory expression %T", in.Expr)
	}
	return nil
}

func (fb *fnBuilder) emitIdentLoad(dst int32, x *minic.Ident) error {
	if x.Sym != nil && x.Sym.Kind == minic.SymBuiltin {
		fb.emit(OpStdio, dst, fb.b.str(x.Name), 0, 0)
		return nil
	}
	ref, err := fb.objRef(x.Sym)
	if err != nil {
		return err
	}
	if x.Sym.Type != nil && x.Sym.Type.Kind == minic.TypeArray {
		fb.emit(OpAddrO, dst, ref, 0, 0)
		return nil
	}
	fb.emit(OpLoadO, dst, ref, 0, 0)
	return nil
}

// indexStride mirrors the walker's multi-dimensional index scaling.
func indexStride(x *minic.Index) int32 {
	stride := int32(1)
	bt := x.X.Type()
	if bt != nil && bt.ElemType() != nil && bt.ElemType().Kind == minic.TypeArray {
		if n, _ := interp.FlattenArray(bt.ElemType()); n > 0 {
			stride = int32(n)
		}
	}
	return stride
}

// emitAddr materializes the address of an lvalue into dst.
func (fb *fnBuilder) emitAddr(dst int32, lv minic.Expr) error {
	switch t := lv.(type) {
	case *minic.Ident:
		ref, err := fb.objRef(t.Sym)
		if err != nil {
			return err
		}
		fb.emit(OpAddrO, dst, ref, 0, 0)
	case *minic.Index:
		idx, err := fb.exprReg(t.Idx)
		if err != nil {
			return err
		}
		base, err := fb.exprReg(t.X)
		if err != nil {
			return err
		}
		pc := fb.emit(OpIdx, dst, idx, base, indexStride(t))
		fb.setPos(pc, t.Pos)
	case *minic.Unary:
		if t.Op != "*" {
			return fmt.Errorf("expression is not an lvalue")
		}
		p, err := fb.exprReg(t.X)
		if err != nil {
			return err
		}
		pc := fb.emit(OpChkP, dst, p, 0, 0)
		fb.setPos(pc, t.Pos)
	default:
		return fmt.Errorf("expression %T is not an lvalue", lv)
	}
	return nil
}

func (fb *fnBuilder) emitEffect(in *ir.Instr) error {
	if in.Decl != nil && in.Expr == nil {
		// Untracked declarator with initializer.
		initReg, err := fb.reg(in.Args[0])
		if err != nil {
			return err
		}
		return fb.emitAlloc(in.Decl, initReg)
	}
	switch x := in.Expr.(type) {
	case *minic.Assign:
		return fb.emitUntrackedAssign(in, x)
	case *minic.Unary:
		if x.Op == "++" || x.Op == "--" {
			return fb.emitUntrackedIncDec(in, x.X, x.Op, false)
		}
	case *minic.Postfix:
		return fb.emitUntrackedIncDec(in, x.X, x.Op, true)
	}
	return fmt.Errorf("unhandled effect")
}

func (fb *fnBuilder) emitUntrackedAssign(in *ir.Instr, x *minic.Assign) error {
	rhs, err := fb.reg(in.Args[0])
	if err != nil {
		return err
	}
	if x.Op == "=" {
		// Plain store: the assign's value is the rhs register (the IR
		// returns the rhs instruction for consumers).
		switch lv := x.L.(type) {
		case *minic.Ident:
			ref, err := fb.objRef(lv.Sym)
			if err != nil {
				return err
			}
			fb.emit(OpStoreO, ref, rhs, 0, 0)
			return nil
		default:
			if err := fb.emitAddr(fb.scratch0, x.L); err != nil {
				return err
			}
			fb.emit(OpStoreP, fb.scratch0, rhs, 0, 0)
			return nil
		}
	}
	// Compound: load current, apply, store; result is the applied value
	// before storage conversion (the walker returns rhs post-op).
	dst, err := fb.reg(in)
	if err != nil {
		return err
	}
	if err := fb.emitAddr(fb.scratch0, x.L); err != nil {
		return err
	}
	fb.emit(OpLoadP, fb.scratch1, fb.scratch0, 0, 0)
	op := x.Op[:len(x.Op)-1]
	bop := typedBinOp(op, x.L.Type(), x.R.Type())
	if bop == OpBin {
		fb.emit(OpBin, dst, fb.scratch1, rhs, fb.b.operator(op))
	} else {
		fb.emit(bop, dst, fb.scratch1, rhs, 0)
	}
	fb.emit(OpStoreP, fb.scratch0, dst, 0, 0)
	return nil
}

func (fb *fnBuilder) emitUntrackedIncDec(in *ir.Instr, target minic.Expr, op string, postfix bool) error {
	dst, err := fb.reg(in)
	if err != nil {
		return err
	}
	if err := fb.emitAddr(fb.scratch0, target); err != nil {
		return err
	}
	delta := int32(1)
	if op == "--" {
		delta = -1
	}
	// Postfix yields the old value, prefix the incremented one.
	old, nv := fb.scratch1, dst
	if postfix {
		old, nv = dst, fb.scratch1
	}
	fb.emit(OpLoadP, old, fb.scratch0, 0, 0)
	fb.emit(OpAddN, nv, old, delta, 0)
	fb.emit(OpStoreP, fb.scratch0, nv, 0, 0)
	return nil
}
