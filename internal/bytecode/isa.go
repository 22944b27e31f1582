// Package bytecode compiles MiniC (via the internal/ir SSA form) into a
// register-based bytecode and executes it on a tight switch-dispatch VM.
//
// The VM is the only executor of MiniC: every stage on all three backends
// (sequential interpreter, streaming CPU path, GPU kernel executor), the
// file-scope initializers, and the host code a GPU task runs up to its
// kernel launch point. It matches the tree-walking reference evaluator
// (package interp/walker, which only tests import) exactly: output bytes,
// cost-model totals (ops/loads/stores per memory space), statement step
// counts, and error strings, because goldens for simulated time and
// deterministic GPU scheduling were recorded against the walker.
//
// Everything else stateful — object memory, string literals, the
// builtin table, cost charging, the step budget — stays in an
// interp.Machine; the bytecode layer replaces the AST walk and keeps the
// globals' objects.
package bytecode

import (
	"repro/internal/interp"
	"repro/internal/minic"
)

// Op is a bytecode opcode.
type Op uint8

// Opcodes. Operand meaning is per-opcode (A..D are int32):
//
//	charge  D=charge#          makes Charges[D-1] (see Charge)
//	jmp     A=target D=charge# makes Charges[D-1] first (none when D=0)
//	br      A=cond B=true C=false D=charge#
//	                           makes Charges[D-1] first (none when D=0)
//	ret     A=src              return ConvertFor(fn.Ret, r[A]); terminated
//	ret.z   -                  fall-off return: raw zero value
//	const   A=dst B=const#     r[A] = consts[B]
//	move    A=dst B=src
//	zero    A=dst              r[A] = Value{}
//	bool    A=dst B=src        r[A] = Truthy(r[B]) ? 1 : 0
//	add.i.. A=dst B=l C=r D=var
//	                           typed fast path; both-int guard, else
//	                           interp.ApplyBinary fallback
//	add.f.. A=dst B=l C=r D=var
//	                           both-float guard, else fallback
//	eq.ic.. A=dst B=l C=k      int compare with the constant k: int
//	                           guard, else ApplyBinary(op, r[B], IntVal(k))
//	bin     A=dst B=l C=r D=op# always interp.ApplyBinary (pointer cases)
//	neg/not/bnot A=dst B=src
//	addn    A=dst B=src C=delta D=var
//	                           r[A] = interp.AddInt(r[B], C)
//	cvt     A=dst B=src C=type# r[A] = ConvertFor(types[C], r[B])
//	load.v  A=dst B=varreg C=sym#  register read + Load cost charge
//	store.v A=varreg B=src C=sym# D=folded
//	                           ConvertFor(sym type); D=0 also charges the
//	                           Store, D=1 leaves it to a charge's traffic
//	load.o  A=dst B=objref     scalar object read (cell 0) + Load charge
//	store.o A=objref B=src     scalar object store via Machine.StorePtr
//	addr.o  A=dst B=objref     r[A] = pointer to object (array decay, &x)
//	alloc   A=slot B=spec# C=init-reg|-1  fresh object for a declarator
//	load.p  A=dst B=ptr D=chk  bounds-checked load; D=1 adds deref check
//	store.p A=ptr B=src D=chk  bounds-checked store; D=1 adds lvalue check
//	chk.p   A=dst B=src        store-through null/non-pointer check
//	idx     A=dst B=idx C=base D=stride  region-array subscript pointer
//	load.ai A=dst B=idx C=objref D=stride
//	                           addr.o, idx and load.p in one: element
//	                           r[B]*D of the array object C
//	load.pi A=dst B=idx C=objref D=stride
//	                           load.o, idx and load.p in one: element
//	                           r[B]*D past the pointer in object C, with
//	                           load.o's Load charge and idx's null or
//	                           non-pointer check (at Fn.Pos) in between
//	str     A=dst B=str#       interned string literal pointer
//	stdio   A=dst B=str#       stdin/stdout/stderr handle
//	arg     A=src              push call argument
//	call    A=dst B=callee# C=argc
//	define  A=sym# B=spec# C=init-reg|-1  fresh object for a file-scope
//	                           declarator, defined as global Syms[A]
//	launch  A=argc             end the run at the kernel launch point,
//	                           handing over the A pushed object pointers,
//	                           one per free symbol in Program.Free order
//
// The variable opcodes charge only in GPU code (kernel entries and their
// callees). Whole programs emit no load.v: a read of a tracked variable
// is its register, or a move out of it, and its Load, like every store.v's
// Store, rides on the next charge as traffic.
//
// In a whole program, add, sub and mul (.i and .f) and addn also store:
// D=0 leaves r[A] a temporary; otherwise A is the home register of the
// tracked variable D names, and the result is converted as store.v
// converts it. D>0 names Syms[D-1], a long (integer opcodes) or a double
// (float opcodes), which a result of the guarded kind is already; D<0
// names Syms[-D-1], an int, into which an integer result wraps to 32 bits.
//
// A transfer carries the charge the compiler flushed directly before it
// when no jump lands on the transfer itself, so a block's closing charge
// costs no dispatch of its own.
//
// An objref encodes where an object lives: ref >= 0 is a program-global
// symbol index resolved once per VM; ref < 0 is frame object slot
// (-ref - 1), populated by alloc, parameter binding, or (for a kernel
// program's free symbols) the host before execution.
const (
	OpNop Op = iota
	OpCharge
	OpJmp
	OpBr
	OpRet
	OpRetZ
	OpConst
	OpMove
	OpZero
	OpBool
	OpAddI
	OpSubI
	OpMulI
	OpDivI
	OpModI
	OpAndI
	OpOrI
	OpXorI
	OpShlI
	OpShrI
	OpEqI
	OpNeI
	OpLtI
	OpLeI
	OpGtI
	OpGeI
	OpAddF
	OpSubF
	OpMulF
	OpDivF
	OpEqF
	OpNeF
	OpLtF
	OpLeF
	OpGtF
	OpGeF
	OpBin
	OpNeg
	OpNot
	OpBnot
	OpAddN
	OpCvt
	OpLoadV
	OpStoreV
	OpLoadO
	OpStoreO
	OpAddrO
	OpAlloc
	OpLoadP
	OpStoreP
	OpChkP
	OpIdx
	OpStr
	OpStdio
	OpArg
	OpCall
	OpDefine
	OpLaunch
	OpLoadAI
	OpLoadPI
	OpEqIC
	OpNeIC
	OpLtIC
	OpLeIC
	OpGtIC
	OpGeIC
	opCount
)

var opNames = [opCount]string{
	OpNop:    "nop",
	OpCharge: "charge",
	OpJmp:    "jmp",
	OpBr:     "br",
	OpRet:    "ret",
	OpRetZ:   "ret.z",
	OpConst:  "const",
	OpMove:   "move",
	OpZero:   "zero",
	OpBool:   "bool",
	OpAddI:   "add.i",
	OpSubI:   "sub.i",
	OpMulI:   "mul.i",
	OpDivI:   "div.i",
	OpModI:   "mod.i",
	OpAndI:   "and.i",
	OpOrI:    "or.i",
	OpXorI:   "xor.i",
	OpShlI:   "shl.i",
	OpShrI:   "shr.i",
	OpEqI:    "eq.i",
	OpNeI:    "ne.i",
	OpLtI:    "lt.i",
	OpLeI:    "le.i",
	OpGtI:    "gt.i",
	OpGeI:    "ge.i",
	OpAddF:   "add.f",
	OpSubF:   "sub.f",
	OpMulF:   "mul.f",
	OpDivF:   "div.f",
	OpEqF:    "eq.f",
	OpNeF:    "ne.f",
	OpLtF:    "lt.f",
	OpLeF:    "le.f",
	OpGtF:    "gt.f",
	OpGeF:    "ge.f",
	OpBin:    "bin",
	OpNeg:    "neg",
	OpNot:    "not",
	OpBnot:   "bnot",
	OpAddN:   "addn",
	OpCvt:    "cvt",
	OpLoadV:  "load.v",
	OpStoreV: "store.v",
	OpLoadO:  "load.o",
	OpStoreO: "store.o",
	OpAddrO:  "addr.o",
	OpAlloc:  "alloc",
	OpLoadP:  "load.p",
	OpStoreP: "store.p",
	OpChkP:   "chk.p",
	OpIdx:    "idx",
	OpStr:    "str",
	OpStdio:  "stdio",
	OpArg:    "arg",
	OpCall:   "call",
	OpDefine: "define",
	OpLaunch: "launch",
	OpLoadAI: "load.ai",
	OpLoadPI: "load.pi",
	OpEqIC:   "eq.ic",
	OpNeIC:   "ne.ic",
	OpLtIC:   "lt.ic",
	OpLeIC:   "le.ic",
	OpGtIC:   "gt.ic",
	OpGeIC:   "ge.ic",
}

// Name returns the opcode mnemonic.
func (op Op) Name() string {
	if int(op) < len(opNames) && opNames[op] != "" {
		return opNames[op]
	}
	return "op?"
}

// Instr is one bytecode instruction. Operand meaning is per-opcode; see
// the opcode table.
type Instr struct {
	Op         Op
	A, B, C, D int32
}

// Callee identifies one call target by name and sema builtin marking; the
// VM resolves it per machine with the interpreter's exact dispatch order.
type Callee struct {
	Name    string
	Builtin bool
}

// AllocSpec describes the object one alloc instruction creates: the
// flattened cell count and element type of one declarator.
type AllocSpec struct {
	Sym  *minic.Symbol
	Elem *minic.Type
	N    int32
	Name string
}

// Param binds one function parameter to its frame location: a register for
// tracked scalars, an object slot for demoted parameters. Kept marks a
// demoted parameter whose slot the function never takes the address of
// (no addr.o) nor allocates: nothing can point at its object, so a pooled
// frame keeps the object from call to call and only rewrites its cell.
type Param struct {
	Reg  int32 // register index, or -1
	Slot int32 // frame object slot, or -1
	Kept bool
	Sym  *minic.Symbol
	Type *minic.Type
}

// Charge is one entry of a program's charge table: what a charge
// instruction, or a transfer that carries one, charges. Folded and
// batched code make cost.Op(Ops), then the tracked-variable accesses of
// Traffic[Traffic-1] (none when Traffic is 0), then Steps against the step
// budget. Loads and Stores are the sums of that list, which is all an
// interp.CountingSink keeps of it. A Serial entry (per-event code, no
// traffic) makes the Steps, then Ops separate cost.Op(1) calls, since a
// float cost sink adding n·c at once is not n additions of c.
type Charge struct {
	Ops, Steps, Traffic int32
	Loads, Stores       int32
	Serial              bool
}

// Access counts the reads and writes of one tracked variable that a
// charge instruction makes at once. Sym indexes Program.Syms.
type Access struct {
	Sym           int32
	Loads, Stores int32
}

// FreeRef binds one free symbol of a kernel program to the frame object
// slot the host must populate before execution.
type FreeRef struct {
	Sym  *minic.Symbol
	Slot int32
}

// Fn is one compiled function.
type Fn struct {
	Name        string
	Decl        *minic.FuncDecl
	Ret         *minic.Type
	NumRegs     int32
	NumObjSlots int32
	Params      []Param
	Code        []Instr
	// Pos parallels Code; the source position for trap error messages
	// (zero when the instruction cannot trap).
	Pos []minic.Pos
}

// Program is a compiled translation unit or one translated kernel region,
// plus the constant pools its instructions index into.
type Program struct {
	Consts  []interp.Value
	Strs    []string
	Types   []*minic.Type
	Syms    []*minic.Symbol
	Allocs  []AllocSpec
	Ops     []string
	Callees []Callee
	// Charges is the charge table charge instructions and transfers
	// name (D = 1 + index).
	Charges []Charge
	// Traffic holds the per-symbol access lists charges reference
	// (Charge.Traffic = 1 + index).
	Traffic [][]Access
	Fns     []*Fn
	// Main indexes Fns, -1 when the program has no main.
	Main int
	// Init indexes Fns' <init>, which runs the file-scope declarations in
	// order, each defining its global; -1 when the program has none. It
	// is compiled with folded charges and runs once per machine, before
	// main; in a kernel program, only on the host.
	Init int
	// Entries is a kernel program's entry count, 0 for a whole program.
	// Fns[0:Entries] are the entries of one translated region (a mapper's
	// loop condition and body, a combiner's region): parameterless, and
	// sharing one object-slot table and one register frame. Free lists
	// the table's slots the host binds, once, before any entry runs.
	// The program functions the entries call, directly or transitively,
	// follow them, compiled with per-event charges (see compile.go); they
	// resolve globals through Syms, as whole-program functions do, to the
	// thread's copies of the globals at the launch point. Then come the
	// host part's functions, with folded charges: <init>, if any, the
	// host entry, the function that holds the region, where a launch
	// instruction stands for the region, main, and the functions they
	// call on the way to it.
	Entries int
	Free    []FreeRef
}

// Fn returns the compiled function with the given name, or nil.
func (p *Program) Fn(name string) *Fn {
	for _, f := range p.Fns {
		if f.Name == name {
			return f
		}
	}
	return nil
}
