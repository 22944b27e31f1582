package bytecode_test

import (
	"strings"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/compiler"
	"repro/internal/interp"
	"repro/internal/minic"
)

// TestVerifyDefineAndLaunch checks the verifier on the instructions of
// <init> and of a host entry: a define names a symbol, an alloc spec and
// an optional register, and a launch hands over one object per free
// symbol, which only a kernel program has.
func TestVerifyDefineAndLaunch(t *testing.T) {
	whole := fuzzBounds
	whole.Free = -1
	for _, tc := range []struct {
		in     bytecode.Instr
		b      bytecode.Bounds
		accept bool
	}{
		{bytecode.Instr{Op: bytecode.OpDefine, A: 3, B: 1, C: -1}, fuzzBounds, true},
		{bytecode.Instr{Op: bytecode.OpDefine, A: 0, B: 0, C: 7}, fuzzBounds, true},
		{bytecode.Instr{Op: bytecode.OpDefine, A: 4, B: 0, C: -1}, fuzzBounds, false},
		{bytecode.Instr{Op: bytecode.OpDefine, A: 0, B: 2, C: -1}, fuzzBounds, false},
		{bytecode.Instr{Op: bytecode.OpDefine, A: 0, B: 0, C: 8}, fuzzBounds, false},
		{bytecode.Instr{Op: bytecode.OpLaunch, A: 1}, fuzzBounds, true},
		{bytecode.Instr{Op: bytecode.OpLaunch, A: 0}, fuzzBounds, false},
		{bytecode.Instr{Op: bytecode.OpLaunch, A: 2}, fuzzBounds, false},
		{bytecode.Instr{Op: bytecode.OpLaunch, A: 0}, whole, false},
	} {
		err := bytecode.VerifyCode([]bytecode.Instr{tc.in}, tc.b)
		if (err == nil) != tc.accept {
			t.Errorf("VerifyCode(%+v, free %d) = %v, want accept %v", tc.in, tc.b.Free, err, tc.accept)
		}
	}
}

// TestVerifyChargesAndFusedLoads checks the verifier on the forms that
// cut dispatches: charge operands name a charge-table entry (1 + index;
// a jmp or br may name none), whose totals are its traffic list's sums;
// targets run up to len(code), the fall-off exit; a fused subscript load
// names two registers and an object; a compare with a constant names two
// registers; and the variable an arithmetic instruction stores into (its
// operand D, 1 + a symbol index, negated for an int) is in range and of
// the type whose conversion the opcode makes.
func TestVerifyChargesAndFusedLoads(t *testing.T) {
	for _, tc := range []struct {
		in     bytecode.Instr
		accept bool
	}{
		{bytecode.Instr{Op: bytecode.OpCharge, D: 1}, true},
		{bytecode.Instr{Op: bytecode.OpCharge, D: 2}, true},
		{bytecode.Instr{Op: bytecode.OpCharge, D: 0}, false},
		{bytecode.Instr{Op: bytecode.OpCharge, D: 3}, false},
		{bytecode.Instr{Op: bytecode.OpCharge, D: -1}, false},
		{bytecode.Instr{Op: bytecode.OpJmp, A: 1}, true},
		{bytecode.Instr{Op: bytecode.OpJmp, A: 1, D: 2}, true},
		{bytecode.Instr{Op: bytecode.OpJmp, A: 2}, false},
		{bytecode.Instr{Op: bytecode.OpJmp, A: 0, D: 3}, false},
		{bytecode.Instr{Op: bytecode.OpBr, A: 7, B: 0, C: 1, D: 1}, true},
		{bytecode.Instr{Op: bytecode.OpBr, A: 7, B: 2, C: 1}, false},
		{bytecode.Instr{Op: bytecode.OpBr, A: 7, B: 0, C: 1, D: -2}, false},
		{bytecode.Instr{Op: bytecode.OpLoadAI, A: 0, B: 7, C: -2, D: 1}, true},
		{bytecode.Instr{Op: bytecode.OpLoadPI, A: 7, B: 0, C: 3, D: 1}, true},
		{bytecode.Instr{Op: bytecode.OpLoadAI, A: 8, B: 0, C: 0, D: 1}, false},
		{bytecode.Instr{Op: bytecode.OpLoadPI, A: 0, B: -1, C: 0, D: 1}, false},
		{bytecode.Instr{Op: bytecode.OpLoadAI, A: 0, B: 0, C: -3, D: 1}, false},
		{bytecode.Instr{Op: bytecode.OpLoadPI, A: 0, B: 0, C: 4, D: 1}, false},
		{bytecode.Instr{Op: bytecode.OpEqIC, A: 0, B: 7, C: -2147483648}, true},
		{bytecode.Instr{Op: bytecode.OpNeIC, A: 7, B: 0, C: 2147483647}, true},
		{bytecode.Instr{Op: bytecode.OpLtIC, A: 1, B: 2, C: 10}, true},
		{bytecode.Instr{Op: bytecode.OpLeIC, A: 1, B: 2, C: 0}, true},
		{bytecode.Instr{Op: bytecode.OpGtIC, A: 1, B: 2, C: 32}, true},
		{bytecode.Instr{Op: bytecode.OpGeIC, A: 1, B: 2, C: -1}, true},
		{bytecode.Instr{Op: bytecode.OpEqIC, A: 8, B: 0, C: 1}, false},
		{bytecode.Instr{Op: bytecode.OpNeIC, A: 0, B: -1, C: 1}, false},
		{bytecode.Instr{Op: bytecode.OpLtIC, A: -1, B: 0, C: 1}, false},
		{bytecode.Instr{Op: bytecode.OpLeIC, A: 0, B: 8, C: 1}, false},
		{bytecode.Instr{Op: bytecode.OpGtIC, A: 9, B: 0, C: 1}, false},
		{bytecode.Instr{Op: bytecode.OpGeIC, A: 0, B: 12, C: 1}, false},
		{bytecode.Instr{Op: bytecode.OpAddI, A: 0, B: 1, C: 2, D: 4}, true},
		{bytecode.Instr{Op: bytecode.OpSubI, A: 0, B: 1, C: 2, D: -4}, true},
		{bytecode.Instr{Op: bytecode.OpMulF, A: 0, B: 1, C: 2, D: 1}, true},
		{bytecode.Instr{Op: bytecode.OpAddN, A: 0, B: 1, C: -7, D: -1}, true},
		{bytecode.Instr{Op: bytecode.OpMulI, A: 0, B: 1, C: 2, D: 5}, false},
		{bytecode.Instr{Op: bytecode.OpAddI, A: 0, B: 1, C: 2, D: -5}, false},
		{bytecode.Instr{Op: bytecode.OpAddF, A: 0, B: 1, C: 2, D: -1}, false},
		{bytecode.Instr{Op: bytecode.OpAddN, A: 0, B: 1, C: 1, D: -2147483648}, false},
	} {
		err := bytecode.VerifyCode([]bytecode.Instr{tc.in}, fuzzBounds)
		if (err == nil) != tc.accept {
			t.Errorf("VerifyCode(%+v) = %v, want accept %v", tc.in, err, tc.accept)
		}
	}
	for _, tc := range []struct {
		charge bytecode.Charge
		accept bool
	}{
		{bytecode.Charge{Ops: 2, Steps: 1, Traffic: 1, Loads: 3, Stores: 1}, true},
		{bytecode.Charge{Ops: 2, Steps: 1, Serial: true}, true},
		{bytecode.Charge{Ops: -1}, false},
		{bytecode.Charge{Steps: -1}, false},
		{bytecode.Charge{Traffic: 2}, false},
		{bytecode.Charge{Ops: 1, Traffic: 1, Loads: 3, Stores: 1, Serial: true}, false},
		{bytecode.Charge{Ops: 2, Traffic: 1}, false},
		{bytecode.Charge{Ops: 2, Traffic: 1, Loads: 3}, false},
		{bytecode.Charge{Ops: 2, Traffic: 1, Loads: 1, Stores: 1}, false},
		{bytecode.Charge{Ops: 2, Stores: 1}, false},
	} {
		p := &bytecode.Program{
			Main: -1, Init: -1,
			Traffic: [][]bytecode.Access{{{Sym: 0, Loads: 1}, {Sym: 1, Loads: 2, Stores: 1}}},
			Charges: []bytecode.Charge{tc.charge},
			Fns:     []*bytecode.Fn{{Name: "f", Code: []bytecode.Instr{{Op: bytecode.OpCharge, D: 1}, {Op: bytecode.OpRetZ}}}},
		}
		if err := bytecode.Verify(p); (err == nil) != tc.accept {
			t.Errorf("Verify(charge %+v) = %v, want accept %v", tc.charge, err, tc.accept)
		}
	}
	syms := []*minic.Symbol{
		{Name: "i", Type: minic.IntType}, {Name: "n", Type: minic.LongType},
		{Name: "d", Type: minic.DoubleType}, {Name: "c", Type: minic.CharType},
	}
	for _, tc := range []struct {
		in     bytecode.Instr
		accept bool
	}{
		{bytecode.Instr{Op: bytecode.OpAddI, A: 0, B: 0, C: 1, D: -1}, true},
		{bytecode.Instr{Op: bytecode.OpMulI, A: 0, B: 0, C: 1, D: 2}, true},
		{bytecode.Instr{Op: bytecode.OpAddN, A: 0, B: 0, C: 1, D: 2}, true},
		{bytecode.Instr{Op: bytecode.OpSubF, A: 0, B: 0, C: 1, D: 3}, true},
		{bytecode.Instr{Op: bytecode.OpAddI, A: 0, B: 0, C: 1}, true},
		{bytecode.Instr{Op: bytecode.OpAddI, A: 0, B: 0, C: 1, D: 1}, false},
		{bytecode.Instr{Op: bytecode.OpSubI, A: 0, B: 0, C: 1, D: -2}, false},
		{bytecode.Instr{Op: bytecode.OpAddN, A: 0, B: 0, C: 1, D: 3}, false},
		{bytecode.Instr{Op: bytecode.OpAddN, A: 0, B: 0, C: 1, D: -4}, false},
		{bytecode.Instr{Op: bytecode.OpMulF, A: 0, B: 0, C: 1, D: 1}, false},
		{bytecode.Instr{Op: bytecode.OpAddF, A: 0, B: 0, C: 1, D: 2}, false},
	} {
		p := &bytecode.Program{
			Main: -1, Init: -1, Syms: syms,
			Fns: []*bytecode.Fn{{Name: "f", NumRegs: 2, Code: []bytecode.Instr{tc.in, {Op: bytecode.OpRetZ}}}},
		}
		if err := bytecode.Verify(p); (err == nil) != tc.accept {
			t.Errorf("Verify(%+v) = %v, want accept %v", tc.in, err, tc.accept)
		}
	}
}

// TestInitListing pins how <init> lists: it follows the program's
// functions, charges no statement step, and defines each global in turn.
// A kernel program's <init> runs only on the host, so it folds there too,
// ahead of the host entry. A program with no globals has no <init>.
func TestInitListing(t *testing.T) {
	prog, err := minic.ParseAndCheck(`int a = 3; int t[2]; int main() { return a + t[1]; }`)
	if err != nil {
		t.Fatal(err)
	}
	p, err := bytecode.Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	if err := bytecode.Verify(p); err != nil {
		t.Fatal(err)
	}
	got := bytecode.Disassemble(p)
	want := `fn <init> (regs=4 slots=0 params=0)
     0  const    r0, 3
     1  define   global a, a[1], init=r0
     2  define   global t, t[2]
     3  charge   ops=1 steps=0
     4  ret.z    
`
	if i := strings.Index(got, "fn <init>"); i < 0 || got[i:] != want || p.Fns[p.Init].Name != "<init>" {
		t.Fatalf("listing:\n%s\nwant it to end with:\n%s", got, want)
	}
	comp, err := compiler.CompileOpts(`int a = 3; int t[2];
int main() {
	int key, v;
	char *line;
	size_t n = 8;
	line = (char*) malloc(8);
	#pragma mapreduce mapper key(key) value(v) kvpairs(1)
	while (getline(&line, &n, stdin) != -1) {
		key = atoi(line) + a + t[1];
		v = 1;
		printf("%d\t%d\n", key, v);
	}
	return 0;
}`, compiler.Options{DisableOpt: true})
	if err != nil {
		t.Fatal(err)
	}
	got = bytecode.Disassemble(comp.KernelVM)
	i := strings.Index(got, "fn <init>")
	if i < 0 || !strings.HasPrefix(got[i:], want+"\nfn main ") {
		t.Fatalf("kernel listing:\n%s\nwant <init> before the host entry main:\n%s", got, want)
	}
	p, err = bytecode.Compile(&minic.Program{Funcs: prog.Funcs})
	if err != nil {
		t.Fatal(err)
	}
	if p.Init != -1 {
		t.Fatalf("a program with no globals has <init> at %d", p.Init)
	}
}

// TestLaunchStopsOnlyAtTheRegion runs a kernel program's host part: the
// launch point hands over the host's objects for the free symbols and
// the globals as main leaves them there, and a main that returns first
// hands over none.
func TestLaunchStopsOnlyAtTheRegion(t *testing.T) {
	const region = `
	#pragma mapreduce mapper key(key) value(v) kvpairs(1)
	while (getline(&line, &n, stdin) != -1) {
		key = atoi(line) + base;
		v = 1;
		printf("%d\t%d\n", key, v);
	}
	base = 99;
	return 0;
}`
	const head = `int base = 1;
int main() {
	int key, v;
	char *line;
	size_t n = 8;
	line = (char*) malloc(8);
	base = base + 6;
`
	for _, tc := range []struct {
		stop    string
		reached bool
	}{{"", true}, {"\tif (n > 0) return 3;\n", false}} {
		comp, err := compiler.CompileOpts(head+tc.stop+region, compiler.Options{DisableOpt: true})
		if err != nil {
			t.Fatal(err)
		}
		lp, err := bytecode.NewVM(interp.New(comp.Kernel.Prog, interp.Options{}), comp.KernelVM).Launch()
		if err != nil {
			t.Fatal(err)
		}
		if (lp != nil) != tc.reached {
			t.Fatalf("stop %q: launch point %v, want reached %v", tc.stop, lp, tc.reached)
		}
		if !tc.reached {
			continue
		}
		for _, f := range comp.KernelVM.Free {
			obj := lp.Slots[f.Slot]
			if obj == nil {
				t.Fatalf("no launch object for %s", f.Sym.Name)
			}
			if f.Sym.Name == "base" && obj.Cells[0].AsInt() != 7 {
				t.Fatalf("base at the launch point = %d, want 7", obj.Cells[0].AsInt())
			}
		}
		for i, sym := range comp.KernelVM.Syms {
			if sym.Global && (lp.Globals[i] == nil || lp.Globals[i].Cells[0].AsInt() != 7) {
				t.Fatalf("global %s at the launch point = %v, want 7", sym.Name, lp.Globals[i])
			}
		}
	}
}

// TestRegionCallingItsHostIsRefused: the function that holds a region
// compiles once, as the host entry, so kernel code that calls it back is
// a compile error rather than a second copy that would never launch. So
// is an initializer that calls it: the host part runs <init> before
// main, so it would reach the launch point before main ran, with that
// global and every later one undefined.
func TestRegionCallingItsHostIsRefused(t *testing.T) {
	const region = `
	int key, v;
	char *line;
	size_t n = 8;
	line = (char*) malloc(8);
	#pragma mapreduce mapper key(key) value(v) kvpairs(1)
	while (getline(&line, &n, stdin) != -1) {
		key = atoi(line);
		if (key < 0) key = HOST();
		v = 1;
		printf("%d\t%d\n", key, v);
	}
	return 0;
}`
	for _, tc := range []struct{ host, src string }{
		{"main", "int main() {" + strings.ReplaceAll(region, "HOST()", "main()")},
		{"run", "int run() {" + strings.ReplaceAll(region, "HOST()", "0") + "\nint g = run();\nint main() { return g; }"},
	} {
		_, err := compiler.Compile(tc.src)
		if want := tc.host + " holds the kernel region and also runs in the kernel"; err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("Compile error %v, want %q", err, want)
		}
	}
}
