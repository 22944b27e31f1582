package bytecode

import (
	"io"
	"strings"
	"testing"

	"repro/internal/interp"
	"repro/internal/minic"
)

// TestKeptParams pins which demoted parameters of paramSrcs a pooled
// frame keeps: every one whose address its function never takes.
func TestKeptParams(t *testing.T) {
	want := map[string]bool{
		"count.s": true, "fill.dst": true, "fill.src": false,
		"rev.s": true, "rev.out": true,
		"keep.s": false, "keep.x": false,
		"next.v": false, "next.w": true,
	}
	got := map[string]bool{}
	for _, ps := range paramSrcs {
		_, code := compileSrc(t, ps.src, true)
		if err := Verify(code); err != nil {
			t.Fatalf("%s: %v", ps.name, err)
		}
		for _, fn := range code.Fns {
			for _, p := range fn.Params {
				if p.Slot >= 0 {
					got[fn.Name+"."+p.Sym.Name] = p.Kept
				}
			}
		}
	}
	if len(got) != len(want) {
		t.Fatalf("demoted parameters %v, want %v", got, want)
	}
	for name, kept := range want {
		if got[name] != kept {
			t.Errorf("%s: kept %v, want %v", name, got[name], kept)
		}
	}
}

// TestVerifyRejectsEscapingKeptParam: Verify refuses a program that marks
// kept a parameter whose address the function takes.
func TestVerifyRejectsEscapingKeptParam(t *testing.T) {
	_, code := compileSrc(t, paramSrcs[2].src, true)
	keep := code.Fn("keep")
	keep.Params[0].Kept = true
	if err := Verify(code); err == nil || !strings.Contains(err.Error(), "parameter s is kept") {
		t.Fatalf("Verify = %v, want the kept-parameter error", err)
	}
}

// TestWarmCallsAllocateNothing pins the per-call host cost of the CPU
// stages' hottest calls: once a VM and its machine are warm, a helper
// call with two pointer parameters, printf, scanf and getline allocate
// nothing, and the frames they return to the pool hold no values.
func TestWarmCallsAllocateNothing(t *testing.T) {
	const src = `
int two(char *a, char *b) { return a[0] + b[1]; }
void emit(char *w, int n) { printf("%s\t%d\n", w, n); }
int scan(char *w, int *n) { return scanf("%s %d", w, n); }
int line(char **l, size_t *n) { return getline(l, n, stdin); }
int main() { return 0; }`
	prog, code := compileSrc(t, src, false)
	str := func(s string) interp.Value {
		obj := interp.NewObject(s, minic.CharType, 64, interp.SpaceRAM)
		interp.WriteCString(interp.Pointer{Obj: obj}, s)
		return interp.PtrVal(interp.Pointer{Obj: obj})
	}
	ref := func(v interp.Value, t *minic.Type) interp.Value {
		obj := interp.NewObject("ref", t, 1, interp.SpaceRAM)
		obj.Cells[0] = v
		return interp.PtrVal(interp.Pointer{Obj: obj})
	}
	cases := []struct {
		fn   string
		args []interp.Value
	}{
		{"two", []interp.Value{str("word"), str("line")}},
		{"emit", []interp.Value{str("word"), interp.IntVal(42)}},
		{"scan", []interp.Value{str(""), ref(interp.IntVal(0), minic.IntType)}},
		{"line", []interp.Value{ref(str(""), minic.PointerTo(minic.CharType)), ref(interp.IntVal(64), minic.LongType)}},
	}
	for _, c := range cases {
		t.Run(c.fn, func(t *testing.T) {
			m := interp.New(prog, interp.Options{
				Stdin:  strings.NewReader(strings.Repeat("word 42\n", 200)),
				Stdout: io.Discard,
				Cost:   &interp.CountingSink{},
			})
			vm := NewVM(m, code)
			if err := vm.start(); err != nil {
				t.Fatal(err)
			}
			fnIdx := int32(-1)
			for i, fn := range code.Fns {
				if fn.Name == c.fn {
					fnIdx = int32(i)
				}
			}
			var err error
			allocs := testing.AllocsPerRun(100, func() {
				var v interp.Value
				if v, _, err = vm.callFn(fnIdx, c.args); err == nil && v.AsInt() < 0 {
					t.Fatalf("%s returned %d", c.fn, v.AsInt())
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if allocs != 0 {
				t.Errorf("%s: %v allocations per warm call, want 0", c.fn, allocs)
			}
			// A pooled frame keeps its parameter objects, but no value,
			// so it keeps no caller's buffer alive.
			for _, fr := range vm.pools[fnIdx] {
				for _, obj := range fr.objs {
					if obj != nil && obj.Cells[0] != (interp.Value{}) {
						t.Errorf("%s: pooled frame's %s holds %+v", c.fn, obj.Name, obj.Cells[0])
					}
				}
			}
		})
	}
}
