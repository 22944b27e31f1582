package interp

import (
	"testing"
	"unsafe"
)

// TestValueIsFourWords pins Value's layout. The Go compiler keeps a struct
// in registers only if it is at most four pointer-words with at most four
// fields (ssa.CanSSA); a larger Value is copied through memory, with a
// write barrier while the GC marks, on every VM register move, cell load
// and store, and IntVal/FloatVal return. Measured on hostbench, the fifth
// word (a separate float field) cost about a quarter of MiniC job time.
func TestValueIsFourWords(t *testing.T) {
	word := unsafe.Sizeof(uintptr(0))
	if word != 8 {
		t.Skipf("layout pinned on 64-bit hosts only (word is %d bytes)", word)
	}
	if got := unsafe.Sizeof(Value{}); got != 4*word {
		t.Fatalf("unsafe.Sizeof(Value{}) = %d bytes, want %d (four words)", got, 4*word)
	}
}
