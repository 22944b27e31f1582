package ir

import "testing"

// TestAllocateRegistersForwardsLoads pins which reads of x take x's own
// register: those that nothing redefines x before they are used.
func TestAllocateRegistersForwardsLoads(t *testing.T) {
	f := buildFunc(t, `
int main(int n) {
	int x = n;
	int a = x + 1;
	int b = x + (x = 3);
	int c = x++;
	if (x) a = 2;
	return a + b + c + x;
}`)
	plan := AllocateRegisters(f)
	var got []bool
	for _, blk := range f.Blocks {
		for _, in := range blk.Instrs {
			if in.Op != OpLoad || in.Var.Sym.Name != "x" {
				continue
			}
			r, ok := plan.ValueReg(in)
			if !ok {
				t.Fatalf("load of x without a register")
			}
			got = append(got, r == plan.VarReg(in.Var))
		}
	}
	// x + 1; x before x = 3; x++'s old value, stored to c after x; the if
	// condition, read at the block end; the return operand.
	want := []bool{true, false, false, true, true}
	if len(got) != len(want) {
		t.Fatalf("got %d loads of x, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("load %d of x: forwarded %v, want %v", i, got[i], want[i])
		}
	}
}
