package compiler

import (
	"fmt"
	"strings"

	"repro/internal/analysis"
	"repro/internal/bytecode"
	"repro/internal/ir"
	"repro/internal/kv"
	"repro/internal/minic"
	"repro/internal/perf"
)

// VarClass is the GPU placement of a variable used inside a kernel region,
// per Algorithm 1 of the paper.
type VarClass int

// Variable classes.
const (
	// ClassLocal: declared inside the region; thread-private registers.
	ClassLocal VarClass = iota
	// ClassPrivate: declared outside, privatized per thread.
	ClassPrivate
	// ClassFirstPrivate: privatized per thread, initialized from the host
	// value before the kernel.
	ClassFirstPrivate
	// ClassROScalar: shared read-only scalar, passed as a kernel parameter
	// (CUDA places it in constant memory).
	ClassROScalar
	// ClassROArray: shared read-only array in global memory
	// (cudaMalloc + cudaMemcpy in).
	ClassROArray
	// ClassTexture: shared read-only array bound to texture memory.
	ClassTexture
)

func (c VarClass) String() string {
	switch c {
	case ClassLocal:
		return "local"
	case ClassPrivate:
		return "private"
	case ClassFirstPrivate:
		return "firstprivate"
	case ClassROScalar:
		return "sharedRO-scalar(constant)"
	case ClassROArray:
		return "sharedRO-array(global)"
	case ClassTexture:
		return "texture"
	default:
		return "?"
	}
}

// KernelSpec is the translator's output for one directive region: the
// rewritten AST region (with GPU runtime intrinsics substituted), the
// variable placement plan, and launch/tuning attributes. The GPU executor
// (package gpurt) instantiates per-thread frames from this plan.
type KernelSpec struct {
	Kind      RegionKind
	Directive *Directive

	// Prog is the GPU-side program (a fresh parse of the source whose
	// region has been rewritten in place).
	Prog *minic.Program
	// Fn is the function containing the region (usually main).
	Fn *minic.FuncDecl
	// Region is the rewritten directive-attached statement.
	Region minic.Stmt

	// Plan classifies every outside variable used in the region.
	Plan map[*minic.Symbol]VarClass

	// KeySym / ValSym are the emitting variables; KeyInSym / ValInSym the
	// receiving ones (combiner only).
	KeySym, ValSym     *minic.Symbol
	KeyInSym, ValInSym *minic.Symbol

	// Launch geometry (resolved from clauses or defaults).
	Blocks  int
	Threads int
	// KVPairs is the per-record emission bound (0 = unknown).
	KVPairs int

	// VectorKey / VectorVal mark array keys/values eligible for char4-style
	// vectorized loads and stores (paper §4.1, §4.2).
	VectorKey bool
	VectorVal bool

	// Warnings from the privatization analysis (paper §3.2).
	Warnings []string
}

// Default launch geometry when blocks/threads clauses are absent.
const (
	DefaultBlocks  = 64
	DefaultThreads = 128
)

// Compiled is the result of translating one directive-annotated MiniC
// source file.
type Compiled struct {
	Source string
	// HostProg is the unmodified program compiled for the CPU streaming
	// path (pragmas are comments there).
	HostProg *minic.Program
	// Kernel is the translated GPU kernel spec.
	Kernel *KernelSpec
	// Schema is the KV wire schema derived from the directive and the
	// key/value variable types.
	Schema kv.Schema
	// CUDA is the CUDA-flavoured rendering of the generated kernel.
	CUDA string
	// Diagnostics holds the static-analysis findings when compilation ran
	// with Options.Analyze (nil otherwise). Analysis is strictly read-only:
	// it never changes the generated kernel.
	Diagnostics []analysis.Diagnostic
	// HostOpt / KernelOpt are the SSA optimizer's per-pass statistics for
	// the host program and the translated kernel program (nil when
	// compilation ran with Options.DisableOpt).
	HostOpt   *ir.Stats
	KernelOpt *ir.Stats
	// VM is the host program lowered to register bytecode — the execution
	// core of the streaming path.
	VM *bytecode.Program
	// KernelVM is the translated region lowered to one kernel program
	// for the GPU kernel executor: a mapper's entries are EntryCond and
	// EntryBody, a combiner's is EntryRegion. Its host part runs the
	// translated program up to the region's launch point (VM.Launch).
	KernelVM *bytecode.Program
}

// The entries of Compiled.KernelVM.
const (
	// EntryCond is a mapper's loop condition, EntryBody its loop body.
	EntryCond = 0
	EntryBody = 1
	// EntryRegion is a combiner's region.
	EntryRegion = 0
)

// Options configures CompileOpts.
type Options struct {
	// Analyze runs the hdlint static-analysis suite (directive, dataflow,
	// parallel-legality, GPU-safety, and IO-purity passes) over the source
	// and the translated kernel, filling Compiled.Diagnostics.
	Analyze bool
	// File names the source in error messages and diagnostics.
	File string
	// DisableOpt turns off the SSA optimizer (-O0). The zero value
	// optimizes: both the host program and the kernel program run the
	// analysis-driven passes before being handed to the backends.
	DisableOpt bool
	// Prof, when non-nil, charges the host parse and the GPU translation
	// to wall-clock phase buckets.
	Prof *perf.Profiler
}

// Compile translates a directive-annotated MiniC source. It returns an
// error if the source has no mapreduce pragma; plain (directive-free)
// sources are valid Hadoop Streaming programs but have no GPU version.
func Compile(src string) (*Compiled, error) { return CompileOpts(src, Options{}) }

// CompileOpts is Compile with options.
func CompileOpts(src string, opts Options) (*Compiled, error) {
	endHost := opts.Prof.Phase(perf.PhaseHostCompile)
	host, err := minic.ParseAndCheckFile(opts.File, src)
	endHost()
	if err != nil {
		return nil, err
	}
	endXlate := opts.Prof.Phase(perf.PhaseGPUTranslate)
	spec, schema, err := translateSource(opts.File, src)
	if err != nil {
		endXlate()
		return nil, err
	}
	cuda := EmitCUDA(spec, schema)
	endXlate()
	c := &Compiled{
		Source:   src,
		HostProg: host,
		Kernel:   spec,
		Schema:   schema,
		CUDA:     cuda,
	}
	if opts.Analyze {
		diags := analysis.Analyze(host)
		diags = append(diags, analysis.AnalyzeKernel(kernelView(opts.File, spec))...)
		analysis.Sort(diags)
		if diags == nil {
			diags = []analysis.Diagnostic{}
		}
		c.Diagnostics = diags
	}
	// Optimize last: lints and the CUDA rendering see the program as
	// written, while all three executing backends (interpreter, streaming,
	// GPU) receive the optimized ASTs.
	if !opts.DisableOpt {
		endOpt := opts.Prof.Phase(perf.PhaseOptimize)
		c.HostOpt = ir.OptimizeProgram(host)
		c.KernelOpt = ir.OptimizeProgram(spec.Prog)
		endOpt()
	}
	// Lower to register bytecode after optimization (the compiler lowers
	// whatever AST the backends will execute).
	endBC := opts.Prof.Phase(perf.PhaseBytecodeCompile)
	err = c.compileBytecode()
	endBC()
	if err != nil {
		return nil, err
	}
	return c, nil
}

// compileBytecode lowers the host program and the kernel region, whose
// program also holds the host part that runs up to the region.
func (c *Compiled) compileBytecode() error {
	var err error
	if c.VM, err = bytecode.Compile(c.HostProg); err != nil {
		return fmt.Errorf("compiler: host program: %w", err)
	}
	spec := c.Kernel
	if spec.Kind != RegionMapper {
		if c.KernelVM, err = bytecode.CompileKernel(spec.Prog, spec.Fn, spec.Region); err != nil {
			return fmt.Errorf("compiler: combiner kernel: %w", err)
		}
		return nil
	}
	loop, ok := spec.Region.(*minic.While)
	if !ok {
		return fmt.Errorf("compiler: mapper region is not a while loop")
	}
	if c.KernelVM, err = bytecode.CompileKernel(spec.Prog, spec.Fn, loop.Cond, loop.Body); err != nil {
		return fmt.Errorf("compiler: mapper kernel: %w", err)
	}
	return nil
}

// translateSource runs the GPU side of compilation: a private parse, region
// extraction, call substitution, classification, and schema derivation.
func translateSource(file, src string) (*KernelSpec, kv.Schema, error) {
	gpu, err := minic.ParseAndCheckFile(file, src)
	if err != nil {
		return nil, kv.Schema{}, err
	}
	pragmas := mapreducePragmas(gpu)
	if len(pragmas) == 0 {
		return nil, kv.Schema{}, fmt.Errorf("compiler: source has no mapreduce pragma")
	}
	if len(pragmas) > 1 {
		return nil, kv.Schema{}, fmt.Errorf("compiler: source has %d mapreduce pragmas, want 1 per file", len(pragmas))
	}
	d, err := ParseDirective(pragmas[0].Text)
	if err != nil {
		return nil, kv.Schema{}, fmt.Errorf("%s: %w", minic.ErrPrefix(file, pragmas[0].Pos), err)
	}
	spec, err := translate(gpu, pragmas[0], d)
	if err != nil {
		return nil, kv.Schema{}, err
	}
	schema, err := deriveSchema(spec)
	if err != nil {
		return nil, kv.Schema{}, err
	}
	return spec, schema, nil
}

// kernelView adapts a translated KernelSpec into the analysis package's
// kernel model for the GPU-safety pass.
func kernelView(file string, spec *KernelSpec) *analysis.Kernel {
	spaces := map[*minic.Symbol]analysis.MemSpace{}
	//detlint:ignore map-iteration: copies one map into another; order is not observable
	for sym, cls := range spec.Plan {
		switch cls {
		case ClassLocal:
			spaces[sym] = analysis.SpaceLocal
		case ClassPrivate:
			spaces[sym] = analysis.SpacePrivate
		case ClassFirstPrivate:
			spaces[sym] = analysis.SpaceFirstPrivate
		case ClassROScalar:
			spaces[sym] = analysis.SpaceConstScalar
		case ClassROArray:
			spaces[sym] = analysis.SpaceGlobalRO
		case ClassTexture:
			spaces[sym] = analysis.SpaceTexture
		}
	}
	clauseRO := map[string]bool{}
	for _, name := range spec.Directive.SharedRO {
		clauseRO[name] = true
	}
	for _, name := range spec.Directive.Texture {
		clauseRO[name] = true
	}
	return &analysis.Kernel{
		File:     file,
		Combiner: spec.Kind == RegionCombiner,
		Region:   spec.Region,
		Spaces:   spaces,
		ClauseRO: clauseRO,
	}
}

// Lint runs the full static-analysis suite over one source without
// stopping at the first problem: frontend failures surface as HD001,
// kernel-translation failures as HD002, and directive-free sources (plain
// streaming reducers) get the source-level passes only. The kernel passes
// run when the source compiles and no source-level pass found an error.
func Lint(file, src string) []analysis.Diagnostic {
	prog, err := minic.ParseAndCheckFile(file, src)
	if err != nil {
		return []analysis.Diagnostic{frontendDiag(file, err)}
	}
	diags := analysis.Analyze(prog)
	pragmas := mapreducePragmas(prog)
	if len(pragmas) == 1 && !analysis.HasErrors(diags) {
		if spec, _, err := translateSource(file, src); err != nil {
			diags = append(diags, analysis.Diagnostic{
				Code:     "HD002",
				Severity: analysis.SevError,
				File:     file,
				Pos:      pragmas[0].Pos,
				Message:  fmt.Sprintf("directive region fails to translate: %v", stripPosPrefix(file, err.Error())),
			})
		} else {
			diags = append(diags, analysis.AnalyzeKernel(kernelView(file, spec))...)
		}
	}
	analysis.Sort(diags)
	return diags
}

// LintCatalog returns the documented diagnostic codes (re-exported so
// tools driving Lint need not import the analysis package).
func LintCatalog() []analysis.CodeInfo { return analysis.Catalog }

// frontendDiag wraps a parse/sema error as an HD001 diagnostic, recovering
// the position from the error's "file:line:col:" prefix when present.
func frontendDiag(file string, err error) analysis.Diagnostic {
	msg := err.Error()
	pos := minic.Pos{}
	for _, prefix := range []string{file + ":", "minic: "} {
		if prefix == ":" || !strings.HasPrefix(msg, prefix) {
			continue
		}
		rest := msg[len(prefix):]
		var l, c int
		var tail string
		if n, _ := fmt.Sscanf(rest, "%d:%d: %s", &l, &c, &tail); n >= 2 {
			pos = minic.Pos{Line: l, Col: c}
			if i := strings.Index(rest, ": "); i >= 0 {
				msg = rest[i+2:]
			}
		}
		break
	}
	return analysis.Diagnostic{
		Code:     "HD001",
		Severity: analysis.SevError,
		File:     file,
		Pos:      pos,
		Message:  msg,
	}
}

// stripPosPrefix removes a leading position prefix from nested error text
// so HD002 messages don't repeat the location twice.
func stripPosPrefix(file, msg string) string {
	if file != "" && strings.HasPrefix(msg, file+":") {
		rest := msg[len(file)+1:]
		var l, c int
		if n, _ := fmt.Sscanf(rest, "%d:%d:", &l, &c); n == 2 {
			if i := strings.Index(rest, ": "); i >= 0 {
				return rest[i+2:]
			}
		}
	}
	return msg
}

func mapreducePragmas(prog *minic.Program) []*minic.PragmaStmt {
	var out []*minic.PragmaStmt
	for _, p := range minic.FindPragmas(prog) {
		if p.IsMapReduce() {
			out = append(out, p)
		}
	}
	return out
}

// translate performs kernel extraction: region validation, call
// substitution, and Algorithm-1 variable classification.
func translate(prog *minic.Program, pragma *minic.PragmaStmt, d *Directive) (*KernelSpec, error) {
	fn := enclosingFunc(prog, pragma)
	if fn == nil {
		return nil, fmt.Errorf("compiler: cannot find function enclosing the pragma")
	}
	// Region shape check: the paper attaches mapper directives to the
	// record while-loop and combiner directives to a while loop or block.
	switch d.Kind {
	case RegionMapper:
		if _, ok := pragma.Body.(*minic.While); !ok {
			return nil, fmt.Errorf("compiler: mapper pragma must annotate a while loop, got %T", pragma.Body)
		}
	case RegionCombiner:
		switch pragma.Body.(type) {
		case *minic.While, *minic.Block:
		default:
			return nil, fmt.Errorf("compiler: combiner pragma must annotate a while loop or block, got %T", pragma.Body)
		}
	}

	spec := &KernelSpec{
		Kind:      d.Kind,
		Directive: d,
		Prog:      prog,
		Fn:        fn,
		Region:    pragma.Body,
		Plan:      map[*minic.Symbol]VarClass{},
		Blocks:    d.Blocks,
		Threads:   d.Threads,
		KVPairs:   d.KVPairs,
	}
	if spec.Blocks == 0 {
		spec.Blocks = DefaultBlocks
	}
	if spec.Threads == 0 {
		spec.Threads = DefaultThreads
	}

	// Resolve the directive's named variables against region symbols.
	syms := visibleSymbols(fn, prog)
	resolve := func(name, clause string, required bool) (*minic.Symbol, error) {
		if name == "" {
			if required {
				return nil, fmt.Errorf("compiler: missing %s clause", clause)
			}
			return nil, nil
		}
		s, ok := syms[name]
		if !ok {
			return nil, fmt.Errorf("compiler: %s clause names unknown variable %q", clause, name)
		}
		return s, nil
	}
	var err error
	if spec.KeySym, err = resolve(d.Key, "key", true); err != nil {
		return nil, err
	}
	if spec.ValSym, err = resolve(d.Value, "value", true); err != nil {
		return nil, err
	}
	if d.Kind == RegionCombiner {
		if spec.KeyInSym, err = resolve(d.KeyIn, "keyin", true); err != nil {
			return nil, err
		}
		if spec.ValInSym, err = resolve(d.ValueIn, "valuein", true); err != nil {
			return nil, err
		}
	}
	for _, lst := range [][]string{d.FirstPrivate, d.SharedRO, d.Texture} {
		for _, name := range lst {
			if _, ok := syms[name]; !ok {
				return nil, fmt.Errorf("compiler: clause names unknown variable %q", name)
			}
		}
	}

	// Substitute stdio calls with GPU runtime intrinsics.
	subs := rewriteRegion(spec)
	if d.Kind == RegionMapper && subs.records == 0 {
		return nil, fmt.Errorf("compiler: mapper region never reads records (no getline call found)")
	}
	if d.Kind == RegionCombiner && subs.kvReads == 0 {
		return nil, fmt.Errorf("compiler: combiner region never reads KV pairs (no scanf call found)")
	}
	if subs.emits == 0 {
		spec.Warnings = append(spec.Warnings,
			fmt.Sprintf("%s region emits no KV pairs (no printf call found)", d.Kind))
	}

	// Algorithm 1: classify variables used in the region.
	if err := classifyVariables(spec); err != nil {
		return nil, err
	}

	// Vectorization eligibility: array keys/values use CUDA vector types.
	spec.VectorKey = isArrayLike(spec.KeySym.Type)
	spec.VectorVal = isArrayLike(spec.ValSym.Type)
	return spec, nil
}

func isArrayLike(t *minic.Type) bool {
	return t != nil && (t.Kind == minic.TypeArray || t.Kind == minic.TypePointer)
}

// enclosingFunc finds the function whose body contains the pragma.
func enclosingFunc(prog *minic.Program, pragma *minic.PragmaStmt) *minic.FuncDecl {
	for _, f := range prog.Funcs {
		found := false
		minic.WalkStmts(f.Body, func(s minic.Stmt) {
			if s == minic.Stmt(pragma) {
				found = true
			}
		})
		if found {
			return f
		}
	}
	return nil
}

// visibleSymbols maps names to symbols declared in fn (params and all
// nested declarations) plus file-scope globals. Inner declarations win over
// outer ones with the same name only if encountered later, which matches
// the benchmarks' usage (unique names).
func visibleSymbols(fn *minic.FuncDecl, prog *minic.Program) map[string]*minic.Symbol {
	out := map[string]*minic.Symbol{}
	for _, g := range prog.Globals {
		for _, dcl := range g.Decls {
			out[dcl.Name] = dcl.Sym
		}
	}
	for _, p := range fn.Params {
		out[p.Name] = p.Sym
	}
	minic.WalkStmts(fn.Body, func(s minic.Stmt) {
		if ds, ok := s.(*minic.DeclStmt); ok {
			for _, dcl := range ds.Decls {
				out[dcl.Name] = dcl.Sym
			}
		}
	})
	return out
}

// substitutions tallies the call rewrites performed in a region.
type substitutions struct {
	records int // getline -> getRecord
	kvReads int // scanf   -> getKV
	emits   int // printf  -> emitKV / storeKV
	strings int // str*    -> str*GPU
}

// rewriteRegion replaces C stdio/string calls inside the region with GPU
// runtime intrinsics, mutating the region AST in place (the GPU program is
// a private parse, so the host program is unaffected).
func rewriteRegion(spec *KernelSpec) substitutions {
	var subs substitutions
	d := spec.Directive
	minic.WalkExprs(spec.Region, func(e minic.Expr) bool {
		call, ok := e.(*minic.Call)
		if !ok {
			return true
		}
		switch call.Name {
		case "getline":
			// getline(&line, &n, stdin) -> getRecord(&line): the runtime
			// points *line into the input buffer (ip) and returns the
			// record length, mirroring Listing 3's getRecord.
			call.Name = "getRecord"
			if len(call.Args) >= 1 {
				call.Args = call.Args[:1]
			}
			call.Builtin = true
			subs.records++
		case "scanf":
			// scanf("...", args...) -> getKV(args...): reads the next KV
			// pair of the warp's chunk into the keyin/valuein variables.
			call.Name = "getKV"
			if len(call.Args) >= 1 {
				call.Args = call.Args[1:]
			}
			call.Builtin = true
			subs.kvReads++
		case "printf":
			// printf(fmt, ...) -> emitKV(key, value) in the mapper or
			// storeKV(key, value) in the combiner, using the directive's
			// key/value variables (the format string is discarded; the
			// KV schema defines the wire format).
			if d.Kind == RegionMapper {
				call.Name = "emitKV"
			} else {
				call.Name = "storeKV"
			}
			call.Args = []minic.Expr{identFor(spec.KeySym), identFor(spec.ValSym)}
			call.Builtin = true
			subs.emits++
		case "strcmp", "strcpy", "strlen":
			// Vector-eligible string functions get GPU counterparts that
			// model coalesced char4 accesses (paper §4.1).
			call.Name = call.Name + "GPU"
			call.Builtin = true
			subs.strings++
		}
		return true
	})
	return subs
}

// identFor builds a resolved identifier expression for a symbol.
func identFor(sym *minic.Symbol) minic.Expr {
	id := &minic.Ident{Name: sym.Name, Sym: sym}
	id.SetType(sym.Type)
	return id
}

// classifyVariables implements Algorithm 1 (HandleVariables): it assigns a
// VarClass to every symbol used inside the region. Auto-privatization
// marks a variable firstprivate when its first region access is a read,
// and warns when aliasing makes that analysis unreliable.
func classifyVariables(spec *KernelSpec) error {
	d := spec.Directive
	inSet := func(list []string, name string) bool {
		for _, n := range list {
			if n == name {
				return true
			}
		}
		return false
	}

	// Symbols declared inside the region are local.
	local := map[*minic.Symbol]bool{}
	minic.WalkStmts(spec.Region, func(s minic.Stmt) {
		if ds, ok := s.(*minic.DeclStmt); ok {
			for _, dcl := range ds.Decls {
				local[dcl.Sym] = true
			}
		}
	})

	// Ordered first-access analysis: order lists the region's symbols by
	// first access, firstRead records whether that access was a read.
	var order []*minic.Symbol
	firstRead := map[*minic.Symbol]bool{}
	record := func(sym *minic.Symbol, write bool) {
		if sym == nil || sym.Kind == minic.SymBuiltin {
			return
		}
		if _, seen := firstRead[sym]; !seen {
			firstRead[sym] = !write
			order = append(order, sym)
		}
	}
	var visitExpr func(e minic.Expr, write bool)
	visitExpr = func(e minic.Expr, write bool) {
		switch x := e.(type) {
		case *minic.Ident:
			record(x.Sym, write)
		case *minic.Unary:
			switch x.Op {
			case "&":
				// Address taken: the callee may write through it.
				visitExpr(x.X, true)
			case "++", "--":
				visitExpr(x.X, true)
			default:
				visitExpr(x.X, write)
			}
		case *minic.Postfix:
			visitExpr(x.X, true)
		case *minic.Binary:
			visitExpr(x.L, write)
			visitExpr(x.R, write)
		case *minic.Assign:
			visitExpr(x.R, false)
			visitExpr(x.L, true)
		case *minic.Cond:
			visitExpr(x.C, false)
			visitExpr(x.T, write)
			visitExpr(x.F, write)
		case *minic.Call:
			for _, a := range x.Args {
				// An array decays to a pointer at a call site, so the
				// callee may write through it; treat it as a write, like
				// an explicit address-of.
				if id, ok := a.(*minic.Ident); ok && id.Sym != nil &&
					id.Sym.Type != nil && id.Sym.Type.IsPointerLike() {
					visitExpr(a, true)
					continue
				}
				visitExpr(a, false)
			}
		case *minic.Index:
			// Writing a[i] writes into a; reading reads it.
			visitExpr(x.X, write)
			visitExpr(x.Idx, false)
		case *minic.Cast:
			visitExpr(x.X, write)
		}
	}
	minic.WalkStmts(spec.Region, func(s minic.Stmt) {
		minic.StmtExprs(s, func(e minic.Expr) { visitExpr(e, false) })
	})

	for _, sym := range order {
		if local[sym] {
			spec.Plan[sym] = ClassLocal
			continue
		}
		name := sym.Name
		switch {
		case inSet(d.SharedRO, name):
			if sym.Type.IsPointerLike() {
				spec.Plan[sym] = ClassROArray
			} else {
				spec.Plan[sym] = ClassROScalar
			}
		case inSet(d.Texture, name):
			if !sym.Type.IsPointerLike() {
				return fmt.Errorf("compiler: texture clause variable %q is not an array", name)
			}
			spec.Plan[sym] = ClassTexture
		case inSet(d.FirstPrivate, name):
			spec.Plan[sym] = ClassFirstPrivate
		case sym.Global:
			// File-scope data is shared read-only by MapReduce semantics.
			if sym.Type.IsPointerLike() {
				spec.Plan[sym] = ClassROArray
			} else {
				spec.Plan[sym] = ClassROScalar
			}
		default:
			if firstRead[sym] {
				spec.Plan[sym] = ClassFirstPrivate
				if sym.Type.Kind == minic.TypePointer {
					spec.Warnings = append(spec.Warnings, fmt.Sprintf(
						"auto-privatization of pointer %q may be inaccurate due to aliasing; consider a firstprivate clause", name))
				}
			} else {
				spec.Plan[sym] = ClassPrivate
			}
		}
	}
	return nil
}

// deriveSchema computes the KV wire schema from the key/value variable
// types and directive length clauses.
func deriveSchema(spec *KernelSpec) (kv.Schema, error) {
	d := spec.Directive
	keyKind, keyLen, err := wireKind(spec.KeySym, d.KeyLength, "key")
	if err != nil {
		return kv.Schema{}, err
	}
	valKind, valLen, err := wireKind(spec.ValSym, d.ValLength, "value")
	if err != nil {
		return kv.Schema{}, err
	}
	return kv.Schema{KeyKind: keyKind, ValKind: valKind, KeyLen: keyLen, ValLen: valLen}, nil
}

func wireKind(sym *minic.Symbol, lengthClause int, what string) (kv.Kind, int, error) {
	t := sym.Type
	switch t.Kind {
	case minic.TypeArray:
		if t.Elem.Kind != minic.TypeChar {
			return 0, 0, fmt.Errorf("compiler: %s variable %q: only char arrays are supported as byte %ss", what, sym.Name, what)
		}
		n := t.Len
		if lengthClause > 0 {
			n = lengthClause
		}
		if n <= 0 {
			return 0, 0, fmt.Errorf("compiler: %s variable %q needs a %slength clause (length not derivable)", what, sym.Name, what)
		}
		return kv.Bytes, n, nil
	case minic.TypePointer:
		if lengthClause <= 0 {
			return 0, 0, fmt.Errorf("compiler: %s variable %q is a pointer; a %slength clause is required", what, sym.Name, what)
		}
		return kv.Bytes, lengthClause, nil
	case minic.TypeChar, minic.TypeInt, minic.TypeLong:
		return kv.Int, 8, nil
	case minic.TypeFloat, minic.TypeDouble:
		return kv.Float, 8, nil
	default:
		return 0, 0, fmt.Errorf("compiler: %s variable %q has unsupported type %v", what, sym.Name, t)
	}
}
