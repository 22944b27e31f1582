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
// the tree-walker is the load-bearing property. Functions charge it under
// one of three disciplines, picked per function by builder.disc, one for
// each kind of cost sink the code runs against:
//
//   - Folded (whole programs: every CPU map, combine and reduce stage,
//     whose interp.CountingSink counts in integers). Each instruction's
//     ir.Instr.Entries (the eval-entry ops of the expressions entered just
//     before it, in pre-order) and each statement's step+Op(1) (merged
//     from the block's Stmts list, charged before the statement's first
//     instruction) join pending counters, and so does every Load and
//     Store of a tracked variable, counted per symbol. One `charge`
//     flushes them before every call, conditional-region boundary and
//     block terminator, so the charged totals equal the walker's at each
//     of those points, exit() and getRecord grants included. A read of a
//     tracked variable executes nothing when the register allocator
//     forwards it, and is a move otherwise.
//   - Batched (kernel entries: a mapper region's loop condition and body,
//     a combiner's region). Per-expression Op(1) charges are
//     recovered by inverting the IR's ExprInstr map: the number of
//     expressions an instruction produces the value for is the number of
//     eval-entry ops it carries. Ops and steps batch as in folded code,
//     but load.v and store.v charge each access where it happens. An entry
//     op whose value instruction follows a call is charged after the
//     call, where the walker charges it before.
//   - Per-event (the program functions a kernel's entries call). Every
//     step, entry op and memory access reaches the cost sink as its own
//     event, where the walker charges it: a statement's step and op where
//     the statement starts, and each instruction's Entries ahead of the
//     instruction, through serial `charge` instructions. The event
//     sequence, not only the totals, is the walker's.
//
// GPU time is the float sum gpu.ThreadCost adds event by event, on costs
// that are not dyadic on the M2090, so moving a GPU charge can move its
// bits: an entry's batch order and a callee's one-event-at-a-time order
// are both the recorded definition of GPU time. Once GPU cost is counted
// in integers, entries and callees can fold too, and the batched and
// per-event disciplines go.
//
// A translated region compiles into one kernel program (CompileKernel):
// its entries come first and share one object-slot table, so the GPU
// executor binds the host's objects once per simulated thread or warp,
// and the program functions they call follow, each compiled once.
//
// Two functions have no source of their own:
//
//   - <init> (addInit) runs a program's file-scope declarations in order,
//     each defining its global once its initializer has run. Like the
//     walker's initializers, it charges no statement step or op, only
//     each initializer's entry ops and the store. It folds in every
//     program: it runs once per machine, and in a kernel program on the
//     host only, whose globals every simulated GPU thread copies at the
//     launch point (VM.Launch). A program with no globals has none.
//   - The host entry (addHost) is the function that holds a kernel's
//     region, compiled into the kernel program with the region's pragma
//     lowered to a launch point. Reaching it ends the run, in whatever
//     frame, and hands the GPU executor the objects of the kernel's free
//     symbols and of the globals: the host entry keeps each free symbol
//     in an object, not a register. main, and the functions it calls on
//     the way, compile as ordinary program functions with folded charges.
//
// Every discipline checks an assignment's index or pointer target after
// the target's operands, before the right-hand side, as the walker does.
//
// A construct the compiler cannot lower exactly is a compile error that
// names the function.

// Compile lowers every function of a semantically-analyzed program.
func Compile(prog *minic.Program) (*Program, error) {
	b := newBuilder(folded)
	for _, fn := range prog.Funcs {
		if err := b.addFn(fn, nil, nil, nil, nil); err != nil {
			return nil, err
		}
	}
	if err := b.addInit(prog); err != nil {
		return nil, err
	}
	return b.prog, nil
}

// CompileKernel compiles one translated kernel region of prog into one
// kernel program whose entries are Fns[0:len(entries)], in order. An
// entry is a loop condition (a minic.Expr, whose value the entry returns)
// or a region statement (a minic.Stmt). The entries are compiled with
// batched charges and share one object-slot table: every symbol they use
// but do not declare lives in a slot, and the slots that no entry binds
// are the free symbols the host binds once (Program.Free).
// Every function of prog the entries call, directly or transitively,
// follows them, compiled once with per-event charges, in first-call
// order. A call the VM binds to a program function names no builtin
// (sema forbids the shadowing), so the unmarked callees that name a
// function of prog are exactly those. The host part follows, compiled
// with folded charges: prog's <init> and every function it calls; for a
// non-nil host, the function of prog that holds the region (see addHost),
// which neither the entries nor <init> may call, and main; then every
// function of prog they call that is not compiled yet.
func CompileKernel(prog *minic.Program, host *minic.FuncDecl, entries ...minic.Node) (*Program, error) {
	if len(entries) == 0 {
		return nil, fmt.Errorf("bytecode: kernel has no entry")
	}
	b := newBuilder(batched)
	b.prog.Entries = len(entries)
	slots := newSlotTable()
	declared := map[*minic.Symbol]bool{}
	demote := func(sym *minic.Symbol) bool { return !declared[sym] }
	for _, e := range entries {
		var decl *minic.FuncDecl
		var skip map[minic.Stmt]bool
		switch e := e.(type) {
		case minic.Expr:
			// The walker's EvalIn charges no statement steps for the
			// synthesized wrapper.
			ret := &minic.Return{X: e}
			body := &minic.Block{Stmts: []minic.Stmt{ret}}
			decl, skip = &minic.FuncDecl{Name: "<cond>", Body: body}, map[minic.Stmt]bool{body: true, ret: true}
		case minic.Stmt:
			// The statement itself is charged (the walker's ExecIn
			// charges it); only the wrapper block is not.
			body := &minic.Block{Stmts: []minic.Stmt{e}}
			decl, skip = &minic.FuncDecl{Name: "<region>", Body: body}, map[minic.Stmt]bool{body: true}
			minic.WalkStmts(e, func(s minic.Stmt) {
				if d, ok := s.(*minic.DeclStmt); ok {
					for _, dc := range d.Decls {
						if dc.Sym != nil {
							declared[dc.Sym] = true
						}
					}
				}
			})
		default:
			return nil, fmt.Errorf("bytecode: kernel entry is neither an expression nor a statement")
		}
		if err := b.addFn(decl, demote, skip, slots, nil); err != nil {
			return nil, err
		}
	}
	for _, sym := range slots.syms {
		if !slots.bound[sym] {
			b.prog.Free = append(b.prog.Free, FreeRef{Sym: sym, Slot: slots.of[sym]})
		}
	}
	for _, fn := range b.prog.Fns {
		fn.NumObjSlots = int32(len(slots.syms))
	}

	b.disc = perEvent
	compiled := map[*minic.FuncDecl]bool{}
	if err := b.addCallees(prog, compiled); err != nil {
		return nil, err
	}
	b.disc = folded
	if err := b.addInit(prog); err != nil {
		return nil, err
	}
	if err := b.addCallees(prog, compiled); err != nil {
		return nil, err
	}
	if host != nil {
		if err := b.addHost(prog, host, compiled); err != nil {
			return nil, err
		}
	}
	if err := b.addCallees(prog, compiled); err != nil {
		return nil, err
	}
	return b.prog, nil
}

// addCallees compiles every function of prog that the code compiled so
// far calls and compiled does not hold, each once, in first-call order.
func (b *builder) addCallees(prog *minic.Program, compiled map[*minic.FuncDecl]bool) error {
	// Compiling a callee can intern more callees: the loop reaches them.
	for i := 0; i < len(b.prog.Callees); i++ {
		c := b.prog.Callees[i]
		fn := prog.Func(c.Name)
		if c.Builtin || fn == nil || compiled[fn] {
			continue
		}
		compiled[fn] = true
		if err := b.addFn(fn, nil, nil, nil, nil); err != nil {
			return err
		}
	}
	return nil
}

// addInit compiles prog's file-scope declarations into <init>, under the
// builder's discipline, and records it as Program.Init. A declaration is
// skipped as a statement: only its initializers and stores charge. A
// global array of unspecified length traps where the walker does, before
// its initializer runs, so <init> ends with it.
func (b *builder) addInit(prog *minic.Program) error {
	if len(prog.Globals) == 0 {
		return nil
	}
	body := &minic.Block{}
	skip := map[minic.Stmt]bool{}
	for _, g := range prog.Globals {
		d := g
		for i, dc := range g.Decls {
			if n, _ := interp.FlattenArray(dc.Type); n < 0 {
				trap := *dc
				trap.Init = nil
				d = &minic.DeclStmt{Decls: append(g.Decls[:i:i], &trap)}
				break
			}
		}
		body.Stmts = append(body.Stmts, d)
		skip[d] = true
		if d != g {
			break
		}
	}
	if err := b.addFn(&minic.FuncDecl{Name: "<init>", Body: body}, nil, skip, nil, nil); err != nil {
		return err
	}
	b.prog.Init = len(b.prog.Fns) - 1
	return nil
}

// addHost compiles the host entry, host, whose mapreduce pragma lowers
// to a launch point and which keeps every free symbol of the kernel in an
// object, and then main, each once, under the builder's discipline.
func (b *builder) addHost(prog *minic.Program, host *minic.FuncDecl, compiled map[*minic.FuncDecl]bool) error {
	if compiled[host] {
		return fmt.Errorf("bytecode: %s holds the kernel region and also runs in the kernel or an initializer", host.Name)
	}
	var launch *minic.PragmaStmt
	minic.WalkStmts(host.Body, func(s minic.Stmt) {
		if p, ok := s.(*minic.PragmaStmt); ok && p.IsMapReduce() && launch == nil {
			launch = p
		}
	})
	if launch == nil {
		return fmt.Errorf("bytecode: %s holds no mapreduce region", host.Name)
	}
	isFree := map[*minic.Symbol]bool{}
	for _, f := range b.prog.Free {
		isFree[f.Sym] = true
	}
	compiled[host] = true
	if err := b.addFn(host, func(sym *minic.Symbol) bool { return isFree[sym] }, nil, nil, launch); err != nil {
		return err
	}
	if main := prog.Func("main"); main != nil && !compiled[main] {
		compiled[main] = true
		return b.addFn(main, nil, nil, nil, nil)
	}
	return nil
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
	// disc is the charge discipline of the functions compiled next; see
	// the comment at the top of this file.
	disc discipline
	// traffic backs every Program.Traffic list.
	traffic []Access
	// Scratch that one function's passes reuse from function to function:
	// use counts by ir.Instr.ID, the pcs of the brs whose condition dies
	// there, flags by pc, and tighten's work list and pc map.
	uses  []int32
	dies  []int32
	flags []uint8
	pcs   []int32
}

// discipline is how a function's code charges the walker's cost.
type discipline uint8

const (
	folded discipline = iota
	batched
	perEvent
)

func newBuilder(disc discipline) *builder {
	return &builder{
		disc:      disc,
		prog:      &Program{Main: -1, Init: -1},
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

// trafficRef adds an access list to the pool and returns its charge
// operand, 0 for an empty list. Lists share one backing array, so a
// program's lists cost few allocations; one the array outgrew keeps the
// old array, which never changes.
func (b *builder) trafficRef(acc []Access) int32 {
	if len(acc) == 0 {
		return 0
	}
	start := len(b.traffic)
	b.traffic = append(b.traffic, acc...)
	b.prog.Traffic = append(b.prog.Traffic, b.traffic[start:len(b.traffic):len(b.traffic)])
	return int32(len(b.prog.Traffic))
}

func (b *builder) alloc(d *minic.Declarator) (int32, error) {
	if i, ok := b.allocIdx[d]; ok {
		return i, nil
	}
	n, elem := 1, d.Type
	if d.Type != nil && d.Type.Kind == minic.TypeArray {
		n, elem = interp.FlattenArray(d.Type)
		if n < 0 {
			if d.Sym != nil && d.Sym.Global {
				// A file-scope declaration always executes: its define
				// traps at run time (N < 0), as the walker does.
				n, elem = -1, d.Type
			} else {
				// The walker raises this only if the declaration executes;
				// the compiler rejects the whole function up front.
				return 0, fmt.Errorf("array %q has unspecified length", d.Name)
			}
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

// addFn compiles one function. slots is the object-slot table a kernel
// entry shares with the others; nil gives the function its own. launch is
// the pragma a host entry stops at, nil for any other function.
func (b *builder) addFn(decl *minic.FuncDecl, demote func(*minic.Symbol) bool, skip map[minic.Stmt]bool, slots *slotTable, launch *minic.PragmaStmt) error {
	fn, err := b.compileFn(decl, demote, skip, slots, launch)
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
	// pendingTraffic counts the tracked-variable accesses folded code
	// has made since the last charge, per symbol in first-access order.
	pendingTraffic []Access

	// entry marks a kernel entry, whose free symbols the host binds (see
	// objRef).
	entry bool
	// inv holds the eval-entry op count each instruction carries
	// (inverted ExprInstr map), consumed as batched code charges. Folded
	// and per-event code read ir.Instr.Entries instead.
	inv map[*ir.Instr]int32
	// uses counts each IR value's uses by ir.Instr.ID (see countUses).
	uses []int32
	skip map[minic.Stmt]bool
	// ident is the variable read whose addr.o or load.o is at identPC; a
	// subscript can fuse with it while it is the last instruction.
	ident   *ir.Instr
	identPC int
	// dies lists the pcs of the brs whose condition register is dead once
	// they branch (see tighten).
	dies []int32

	slots *slotTable

	blockPC map[*ir.Block]int32
	patches []patch
	regions []regionFrame

	scratch0, scratch1 int32
	// checked is the assignment target whose address its target check
	// left in scratch0, nil once anything else has written scratch0.
	checked minic.Expr
}

// slotTable numbers the object slots of a function's frame: symbols
// whose storage is an object rather than a register. bound marks the
// slots an alloc or a parameter fills; a kernel program's entries share
// one table, and its unbound slots are the host-bound free symbols.
type slotTable struct {
	of    map[*minic.Symbol]int32
	syms  []*minic.Symbol
	bound map[*minic.Symbol]bool
}

func newSlotTable() *slotTable {
	return &slotTable{of: map[*minic.Symbol]int32{}, bound: map[*minic.Symbol]bool{}}
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

func (b *builder) compileFn(decl *minic.FuncDecl, demote func(*minic.Symbol) bool, skip map[minic.Stmt]bool, slots *slotTable, launch *minic.PragmaStmt) (*Fn, error) {
	f := ir.BuildFragment(decl, demote, launch)
	addLValueUses(f)
	plan := ir.AllocateRegisters(f)
	entry := slots != nil
	if !entry {
		slots = newSlotTable()
	}
	fb := &fnBuilder{
		b:        b,
		f:        f,
		plan:     plan,
		entry:    entry,
		skip:     skip,
		slots:    slots,
		blockPC:  map[*ir.Block]int32{},
		dies:     b.dies[:0],
		scratch0: int32(plan.NumRegs),
		scratch1: int32(plan.NumRegs) + 1,
	}
	if b.disc == batched {
		fb.inv = map[*ir.Instr]int32{}
		//detlint:ignore map-iteration: the counts add commutatively, and folding GPU charges as CPU ones are folded deletes the table
		for _, in := range f.ExprInstr {
			fb.inv[in]++
		}
	}
	fb.countUses()

	// The walker's call runs the function body's statement list without
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
	// objects: fresh per call (the walker allocates one per parameter)
	// unless the code cannot point at them (Param.Kept, set below).
	for _, p := range decl.Params {
		prm := Param{Reg: -1, Slot: -1, Sym: p.Sym, Type: p.Type}
		if v := f.VarFor(p.Sym); v != nil {
			prm.Reg = int32(plan.VarReg(v))
		} else {
			prm.Slot = fb.slot(p.Sym)
			fb.slots.bound[p.Sym] = true
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
	fb.tighten()
	b.dies = fb.dies
	// Only a kernel entry has free symbols, which the host binds
	// (CompileKernel lists them once every entry is compiled).
	if !entry {
		for _, sym := range slots.syms {
			if !slots.bound[sym] {
				return nil, fmt.Errorf("unbound object slot for %q", sym.Name)
			}
		}
	}
	fn.Code = fb.code
	fn.Pos = fb.pos
	fn.NumObjSlots = int32(len(slots.syms))
	for i, prm := range fn.Params {
		fn.Params[i].Kept = prm.Slot >= 0 && !slotEscapes(fn.Code, prm.Slot)
	}
	return fn, nil
}

// Flags tighten keeps by pc.
const (
	pcDies     uint8 = 1 << iota // a br whose condition register dies there
	pcTargeted                   // a jump or branch lands here
	pcReached                    // reachable from the function's entry
	pcDeleted                    // dropped when the code is compacted
)

// tighten removes from the function's patched code the dispatches that do
// no MiniC work. In order, it
//
//   - threads short-circuit values into the br that tests them: where rD
//     dies at `br rD ? T : F` at L (fb.dies), `bool rD, rS; jmp L`
//     becomes `br rS ? T : F`, and a `const rD, k` that falls into the
//     br, past at most one untargeted charge, becomes `jmp T` or `jmp F`,
//     after the charge, whose events it does not reorder. A bool that
//     becomes a br keeps its dies mark, which closeRegion sets when rS
//     dies at the bool, so nested && and || chains thread through;
//   - retargets every jump and branch that lands on a jmp, along chains of
//     at most len(code) jmps, so that a cycle ends;
//   - drops every unreachable instruction and each jmp to the next
//     instruction kept;
//   - folds each charge into the jmp or br that directly follows it when
//     no jump lands on that transfer, which makes the charge first;
//   - renumbers the targets, len(code), the fall-off exit, included, and
//     Fn.Pos.
func (fb *fnBuilder) tighten() {
	code, pos := fb.code, fb.pos
	n := int32(len(code))
	flags := fb.b.flags
	if cap(flags) < int(n) {
		flags = make([]uint8, n)
	}
	flags = flags[:n]
	clear(flags)
	fb.b.flags = flags
	for _, pc := range fb.dies {
		flags[pc] |= pcDies
	}
	markTargets := func() {
		for pc, in := range code {
			if flags[pc]&pcDeleted != 0 {
				continue
			}
			switch in.Op {
			case OpJmp:
				if in.A < n {
					flags[in.A] |= pcTargeted
				}
			case OpBr:
				for _, t := range [2]int32{in.B, in.C} {
					if t < n {
						flags[t] |= pcTargeted
					}
				}
			}
		}
	}
	markTargets()

	// From the end, so that a bool the next one lands on is a br by then.
	consts := fb.b.prog.Consts
	for pc := n - 2; pc >= 0; pc-- {
		switch in := &code[pc]; in.Op {
		case OpBool:
			j := code[pc+1]
			if j.Op != OpJmp || j.A >= n {
				continue
			}
			if br := code[j.A]; br.Op == OpBr && flags[j.A]&pcDies != 0 && br.A == in.A {
				*in = Instr{Op: OpBr, A: in.B, B: br.B, C: br.C}
			}
		case OpConst:
			at := pc + 1
			if code[at].Op == OpCharge && flags[at]&pcTargeted == 0 && at+1 < n {
				at++
			}
			br := code[at]
			if br.Op != OpBr || flags[at]&pcDies == 0 || br.A != in.A {
				continue
			}
			t := br.C
			if consts[in.B].Truthy() {
				t = br.B
			}
			if at > pc+1 {
				code[pc], code[pc+1] = code[pc+1], Instr{Op: OpJmp, A: t}
			} else {
				code[pc] = Instr{Op: OpJmp, A: t}
			}
		}
	}

	follow := func(t int32) int32 {
		for hops := int32(0); t < n && code[t].Op == OpJmp && hops < n; hops++ {
			t = code[t].A
		}
		return t
	}
	for pc := range code {
		switch in := &code[pc]; in.Op {
		case OpJmp:
			in.A = follow(in.A)
		case OpBr:
			in.B, in.C = follow(in.B), follow(in.C)
		}
	}

	work := fb.b.pcs[:0]
	reach := func(t int32) {
		if t < n && flags[t]&pcReached == 0 {
			flags[t] |= pcReached
			work = append(work, t)
		}
	}
	reach(0)
	for len(work) > 0 {
		pc := work[len(work)-1]
		work = work[:len(work)-1]
		switch in := code[pc]; in.Op {
		case OpJmp:
			reach(in.A)
		case OpBr:
			reach(in.B)
			reach(in.C)
		case OpRet, OpRetZ, OpLaunch:
		default:
			reach(pc + 1)
		}
	}
	next := n // the first instruction kept after pc
	for pc := n - 1; pc >= 0; pc-- {
		if in := code[pc]; flags[pc]&pcReached == 0 || in.Op == OpJmp && in.A == next {
			flags[pc] |= pcDeleted
			continue
		}
		next = pc
	}

	for pc := range flags {
		flags[pc] &^= pcTargeted
	}
	markTargets()
	for pc := int32(0); pc < n; pc++ {
		if flags[pc]&pcDeleted != 0 || code[pc].Op != OpCharge {
			continue
		}
		t := pc + 1
		for t < n && flags[t]&pcDeleted != 0 {
			t++
		}
		if t < n && (code[t].Op == OpJmp || code[t].Op == OpBr) && code[t].D == 0 && flags[t]&pcTargeted == 0 {
			code[t].D = code[pc].D
			flags[pc] |= pcDeleted
		}
	}

	newPC, kept := work[:0], int32(0)
	for pc := range flags {
		newPC = append(newPC, kept)
		if flags[pc]&pcDeleted == 0 {
			kept++
		}
	}
	newPC = append(newPC, kept)
	fb.b.pcs = newPC
	kept = 0
	for pc, in := range code {
		if flags[pc]&pcDeleted != 0 {
			continue
		}
		switch in.Op {
		case OpJmp:
			in.A = newPC[in.A]
		case OpBr:
			in.B, in.C = newPC[in.B], newPC[in.C]
		}
		code[kept], pos[kept] = in, pos[pc]
		kept++
	}
	fb.code, fb.pos = code[:kept], pos[:kept]
}

// slotEscapes reports whether code takes the address of object slot or
// allocates a fresh object into it.
func slotEscapes(code []Instr, slot int32) bool {
	for _, in := range code {
		if (in.Op == OpAddrO && in.B == -slot-1) || (in.Op == OpAlloc && in.A == slot) {
			return true
		}
	}
	return false
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

// countUses counts, by ir.Instr.ID, the uses of each value of the
// function: as an argument (hidden lvalue reads included, so it runs after
// addLValueUses), a branch condition or a return value. Phis and variable
// loads name definitions, not uses. An int constant that only addn
// immediates consume (see addnDelta) ends with no use, so its const is
// never emitted; its eval-entry charge still is.
func (fb *fnBuilder) countUses() {
	n := 0
	for _, blk := range fb.f.Blocks {
		for _, in := range blk.Instrs {
			n = max(n, in.ID+1)
			for _, a := range in.Args {
				n = max(n, a.ID+1)
			}
		}
	}
	uses := fb.b.uses
	if cap(uses) < n {
		uses = make([]int32, n)
	}
	uses = uses[:n]
	clear(uses)
	fb.b.uses, fb.uses = uses, uses
	for _, blk := range fb.f.Blocks {
		for _, in := range blk.Instrs {
			if in.Op == ir.OpPhi || in.Op == ir.OpLoad {
				continue
			}
			for _, a := range in.Args {
				uses[a.ID]++
			}
		}
		if blk.Cond != nil {
			uses[blk.Cond.ID]++
		}
	}
	for _, r := range fb.f.Rets {
		uses[r.ID]++
	}
	for _, blk := range fb.f.Blocks {
		for _, in := range blk.Instrs {
			if _, ok := addnDelta(in); ok {
				uses[in.Args[1].ID]--
			}
		}
	}
}

// addnDelta reports whether a binary lowers to addn with an immediate.
func addnDelta(in *ir.Instr) (int32, bool) {
	if in.Op != ir.OpBinary || (in.OpStr != "+" && in.OpStr != "-") {
		return 0, false
	}
	if len(in.Args) != 2 || in.Args[1].Op != ir.OpConst || in.Args[1].Val.Kind != interp.ValInt {
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
	if fb.pendingOps == 0 && fb.pendingSteps == 0 && len(fb.pendingTraffic) == 0 {
		return
	}
	b := fb.b
	b.prog.Charges = append(b.prog.Charges, Charge{
		Ops:     fb.pendingOps,
		Steps:   fb.pendingSteps,
		Traffic: b.trafficRef(fb.pendingTraffic),
		Serial:  b.disc == perEvent,
	})
	fb.emit(OpCharge, 0, 0, 0, int32(len(b.prog.Charges)))
	fb.pendingOps, fb.pendingSteps = 0, 0
	fb.pendingTraffic = fb.pendingTraffic[:0]
}

// addStep adds one statement step to the pending charge. A serial charge
// makes its steps before its ops, so under the per-event discipline the
// ops already pending are flushed first.
func (fb *fnBuilder) addStep() {
	if fb.b.disc == perEvent && fb.pendingOps > 0 {
		fb.flush()
	}
	fb.pendingSteps++
}

// addAccess folds one Load (store false) or Store of a tracked variable
// into the pending charge.
func (fb *fnBuilder) addAccess(v *ir.Var, store bool) {
	sym := fb.b.sym(v.Sym)
	i := 0
	for i < len(fb.pendingTraffic) && fb.pendingTraffic[i].Sym != sym {
		i++
	}
	if i == len(fb.pendingTraffic) {
		fb.pendingTraffic = append(fb.pendingTraffic, Access{Sym: sym})
	}
	if store {
		fb.pendingTraffic[i].Stores++
	} else {
		fb.pendingTraffic[i].Loads++
	}
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
	r, ok := fb.plan.ValueReg(in)
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
	t := fb.slots
	if s, ok := t.of[sym]; ok {
		return s
	}
	s := int32(len(t.syms))
	t.of[sym] = s
	t.syms = append(t.syms, sym)
	return s
}

// objRef encodes where a symbol's object lives: global symbol pool index
// (>= 0) or frame slot (< 0). A kernel entry routes every free symbol
// through the frame so host bindings (GPU privatized/shared objects) win,
// exactly like the walker's frame-before-globals lookup order. Any other
// function, a kernel's callees included, sees its own frame and then the
// globals, as the walker's callee frame does.
func (fb *fnBuilder) objRef(sym *minic.Symbol) (int32, error) {
	if sym == nil {
		return 0, fmt.Errorf("unresolved identifier")
	}
	if sym.Global && !fb.entry {
		return fb.b.sym(sym), nil
	}
	return -fb.slot(sym) - 1, nil
}

func (fb *fnBuilder) emitBlock(blk *ir.Block) error {
	fb.blockPC[blk] = int32(len(fb.code))
	fb.checked = nil
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

	// Check an assignment's index or pointer target where the walker
	// does, before the right-hand side runs.
	var targetEnd map[*ir.Instr]*ir.Instr
	for _, in := range blk.Instrs {
		if in.Op == ir.OpEffect && in.Ends[0] != nil {
			if targetEnd == nil {
				targetEnd = map[*ir.Instr]*ir.Instr{}
			}
			targetEnd[in.Ends[0]] = in
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
		if eff := targetEnd[in]; eff != nil {
			if fb.b.disc == perEvent {
				fb.flush()
			}
			lv := eff.Expr.(*minic.Assign).L
			if err := fb.emitAddr(fb.scratch0, lv); err != nil {
				return err
			}
			fb.checked = lv
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

// stmtEntry batches one statement's step+op entry charge, unless the
// statement is skipped, and synthesizes object allocations for untracked
// init-less declarators (the walker allocates a fresh object every time
// the declaration executes).
func (fb *fnBuilder) stmtEntry(st minic.Stmt) error {
	if !fb.skip[st] {
		fb.addStep()
		fb.pendingOps++
	}
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
		fb.emit(OpDefine, ref, spec, initReg, 0)
		return nil
	}
	fb.slots.bound[dc.Sym] = true
	fb.emit(OpAlloc, -ref-1, spec, initReg, 0)
	return nil
}

func (fb *fnBuilder) openRegion(ev *ir.Instr) error {
	// The walker charges the node's eval-entry op before evaluating
	// either operand; keep it in the unconditional segment. (Folded and
	// per-event code charged it with the operand's first instruction.)
	if fb.b.disc == batched {
		fb.takeCharge(ev)
	}
	fb.flush()
	c, err := fb.reg(ev.Args[0])
	if err != nil {
		return err
	}
	pc := fb.emit(OpBr, c, 0, 0, 0)
	if fb.uses[ev.Args[0].ID] == 1 && fb.temp(c) {
		fb.dies = append(fb.dies, int32(pc))
	}
	switch ev.Op {
	case ir.OpLogic:
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
		pc := fb.emit(OpBool, dst, r, 0, 0)
		if fb.uses[in.Args[1].ID] == 1 && fb.temp(r) {
			// Should tighten turn the bool into a br, r dies there.
			fb.dies = append(fb.dies, int32(pc))
		}
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
	case blk.Launch:
		fb.flush()
		return fb.emitLaunch()
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
		if fb.temp(c) {
			// Temporaries are block-local.
			fb.dies = append(fb.dies, int32(pc))
		}
		fb.patches = append(fb.patches, patch{pc: pc, operand: 1, target: blk.Succs[0]})
		fb.patches = append(fb.patches, patch{pc: pc, operand: 2, target: blk.Succs[1]})
	case len(blk.Succs) == 1:
		if blk.Backstep {
			// The walker's per-iteration steps++ at the loop bottom.
			fb.addStep()
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

// emitLaunch ends a host entry at its kernel launch point: it pushes a
// pointer to the object of each free symbol of the kernel, in
// Program.Free order, and launches.
func (fb *fnBuilder) emitLaunch() error {
	for _, f := range fb.b.prog.Free {
		ref, err := fb.objRef(f.Sym)
		if err != nil {
			return err
		}
		fb.emit(OpAddrO, fb.scratch0, ref, 0, 0)
		fb.emit(OpArg, fb.scratch0, 0, 0, 0)
	}
	fb.emit(OpLaunch, int32(len(fb.b.prog.Free)), 0, 0, 0)
	return nil
}

func (fb *fnBuilder) emitInstr(in *ir.Instr) error {
	switch in.Op {
	case ir.OpLogic, ir.OpSelect:
		// Entry charge was consumed at region open (batched) or with the
		// first operand's first instruction (folded, per-event).
		if in.Entries != 0 {
			return fmt.Errorf("region close with entry charges")
		}
		return fb.closeRegion(in)
	}
	switch fb.b.disc {
	case folded:
		fb.pendingOps += in.Entries
	case batched:
		fb.takeCharge(in)
	case perEvent:
		fb.pendingOps += in.Entries
		switch in.Op {
		case ir.OpParam, ir.OpPhi, ir.OpConst, ir.OpDeclZero:
			// No events and no traps: the charge can wait.
		default:
			fb.flush()
		}
	}
	switch in.Op {
	case ir.OpParam, ir.OpPhi:
		return nil
	case ir.OpConst:
		if fb.uses[in.ID] == 0 {
			return nil
		}
		dst, err := fb.reg(in)
		if err != nil {
			return err
		}
		fb.emit(OpConst, dst, fb.b.constant(in.Val), 0, 0)
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
		src := int32(fb.plan.VarReg(in.Var))
		if fb.b.disc != folded {
			fb.emit(OpLoadV, dst, src, fb.b.sym(in.Var.Sym), 0)
			return nil
		}
		fb.addAccess(in.Var, false)
		if dst != src {
			fb.emit(OpMove, dst, src, 0, 0)
		}
	case ir.OpStore:
		dst, err := fb.reg(in)
		if err != nil {
			return err
		}
		src, err := fb.reg(in.Args[0])
		if err != nil {
			return err
		}
		fold := int32(0)
		if fb.b.disc == folded {
			fb.addAccess(in.Var, true)
			fold = 1
		}
		fb.emit(OpStoreV, dst, src, fb.b.sym(in.Var.Sym), fold)
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
		if err := fb.emitIdentLoad(dst, x); err != nil {
			return err
		}
		fb.ident, fb.identPC = in, len(fb.code)-1
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
		row := x.Type() != nil && x.Type().Kind == minic.TypeArray
		if op := fb.fusedLoad(in.Args[1]); op != OpNop && !row {
			// The base's addr.o or load.o becomes the whole load.
			pc := len(fb.code) - 1
			fb.code[pc] = Instr{Op: op, A: dst, B: idx, C: fb.code[pc].B, D: indexStride(x)}
			fb.setPos(pc, x.Pos)
			return nil
		}
		pc := fb.emit(OpIdx, dst, idx, base, indexStride(x))
		fb.setPos(pc, x.Pos)
		if row {
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

// fusedLoad returns the opcode that loads a subscript of base in one
// instruction, fused with base's addr.o (load.ai) or load.o (load.pi),
// when that is the last instruction emitted and the subscript is base's
// only use; OpNop otherwise.
func (fb *fnBuilder) fusedLoad(base *ir.Instr) Op {
	pc := len(fb.code) - 1
	if fb.ident != base || fb.identPC != pc || fb.uses[base.ID] != 1 {
		return OpNop
	}
	switch fb.code[pc].Op {
	case OpAddrO:
		return OpLoadAI
	case OpLoadO:
		return OpLoadPI
	}
	return OpNop
}

// temp reports whether register r holds instruction temporaries, whose
// live ranges are block-local, rather than a tracked variable or scratch.
func (fb *fnBuilder) temp(r int32) bool {
	return r >= int32(fb.plan.NumVars) && r < fb.scratch0
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

// targetAddr puts the address of a store's target lv in scratch0, unless
// lv's target check left it there and nothing has written scratch0 since.
// A nested untracked store or increment in the right-hand side does; a
// call does not, since the callee runs in a frame of its own.
func (fb *fnBuilder) targetAddr(lv minic.Expr) error {
	reuse := fb.checked == lv
	fb.checked = nil
	if reuse {
		return nil
	}
	return fb.emitAddr(fb.scratch0, lv)
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
			if err := fb.targetAddr(x.L); err != nil {
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
	if err := fb.targetAddr(x.L); err != nil {
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
	if err := fb.targetAddr(target); err != nil {
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
