package bytecode_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/minic"
)

// fuzzBounds are deliberately small pool sizes so the fuzzer exercises
// both the accept and reject sides of every operand range check.
var fuzzBounds = bytecode.Bounds{
	NumRegs: 8, NumObjSlots: 2, Consts: 4, Strs: 2, Types: 2,
	Syms: 4, Allocs: 2, Ops: 4, Callees: 2, Charges: 2, Free: 1,
}

// sampleCode compiles a small MiniC program and returns its main
// function's instruction stream — a realistic, verifiable seed, with
// fused subscript loads of an array and through a pointer, and charges
// its jumps and branches carry.
func sampleCode(tb testing.TB) []bytecode.Instr {
	tb.Helper()
	prog, err := minic.ParseAndCheck(`
int main() {
	int a[10];
	char *p = "abcdefghij";
	int i = 0;
	int s = 0;
	while (i < 10 && p[i]) {
		a[i] = p[i];
		s = s + a[i] * i;
		i = i + 1;
	}
	printf("%d\n", s);
	return 0;
}`)
	if err != nil {
		tb.Fatalf("parse: %v", err)
	}
	p, err := bytecode.Compile(prog)
	if err != nil {
		tb.Fatalf("compile: %v", err)
	}
	return p.Fns[p.Main].Code
}

// FuzzBytecodeRoundTrip fuzzes the instruction codec and the verifier:
// any byte stream the decoder accepts must re-encode to the identical
// bytes and decode again to the identical instructions, and the verifier
// must render a verdict on it without panicking — the bytecode loader's
// safety contract for untrusted streams.
func FuzzBytecodeRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add(bytecode.EncodeInstrs(sampleCode(f)))
	f.Add(bytecode.EncodeInstrs([]bytecode.Instr{
		{Op: bytecode.OpConst, A: 0, B: 0},
		{Op: bytecode.OpAddI, A: 1, B: 0, C: 0},
		{Op: bytecode.OpBr, A: 1, B: 0, C: 3},
		{Op: bytecode.OpRet, A: 1},
	}))
	f.Add(bytecode.EncodeInstrs([]bytecode.Instr{
		{Op: bytecode.OpCharge, A: -1, B: 2},
		{Op: bytecode.OpJmp, A: 99},
	}))
	f.Add(bytecode.EncodeInstrs([]bytecode.Instr{
		{Op: bytecode.OpDefine, A: 3, B: 1, C: -1},
		{Op: bytecode.OpAddrO, A: 0, B: 3},
		{Op: bytecode.OpArg, A: 0},
		{Op: bytecode.OpLaunch, A: 1},
	}))
	f.Add([]byte{0xff})

	f.Fuzz(func(t *testing.T, data []byte) {
		code, err := bytecode.DecodeInstrs(data)
		if err != nil {
			return // malformed streams are the decoder's to reject
		}
		if len(code) != len(data)/17 {
			t.Fatalf("decoded %d instructions from %d bytes", len(code), len(data))
		}
		// The verifier must terminate with a verdict on anything decodable.
		_ = bytecode.VerifyCode(code, fuzzBounds)
		enc := bytecode.EncodeInstrs(code)
		if !bytes.Equal(enc, data) {
			t.Fatalf("re-encode changed the stream\nin:  %x\nout: %x", data, enc)
		}
		code2, err := bytecode.DecodeInstrs(enc)
		if err != nil {
			t.Fatalf("re-decode of own encoding failed: %v", err)
		}
		if !reflect.DeepEqual(code, code2) {
			t.Fatalf("round trip changed instructions\nfirst:  %+v\nsecond: %+v", code, code2)
		}
	})
}

// TestWriteFuzzCorpus (with -update) regenerates the checked-in seed
// corpus under testdata/fuzz/FuzzBytecodeRoundTrip from the same seeds
// the fuzz target Adds, so `make fuzz-smoke` starts from real programs
// even before the fuzzer's own cache warms up.
func TestWriteFuzzCorpus(t *testing.T) {
	if !*update {
		t.Skip("corpus writer; run with -update to regenerate")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzBytecodeRoundTrip")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	seeds := [][]byte{
		bytecode.EncodeInstrs(sampleCode(t)),
		bytecode.EncodeInstrs([]bytecode.Instr{
			{Op: bytecode.OpConst, A: 0, B: 0},
			{Op: bytecode.OpAddI, A: 1, B: 0, C: 0},
			{Op: bytecode.OpBr, A: 1, B: 0, C: 3},
			{Op: bytecode.OpRet, A: 1},
		}),
		bytecode.EncodeInstrs([]bytecode.Instr{
			{Op: bytecode.OpCharge, A: -1, B: 2},
			{Op: bytecode.OpJmp, A: 99},
		}),
	}
	for i, s := range seeds {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(s)))
		name := filepath.Join(dir, fmt.Sprintf("seed-%d", i))
		if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
