package interp

import (
	"math"
	"sync"
	"testing"
)

// Every entry of the purity table is a stdlib builtin that CallPure runs
// to a value of the declared kind; CallPure refuses a wrong argument count
// and impure builtins.
func TestCallPure(t *testing.T) {
	for name, sig := range pureBuiltins {
		if _, ok := stdlib[name]; !ok {
			t.Errorf("pure builtin %q is not in the stdlib", name)
			continue
		}
		args := make([]Value, sig.args)
		for i := range args {
			args[i] = FloatVal(65.5)
		}
		if v, ok := CallPure(name, args); !ok || v.Kind != sig.kind {
			t.Errorf("CallPure(%q) = %+v, %v; want kind %d", name, v, ok, sig.kind)
		}
		if _, ok := CallPure(name, append(args, IntVal(1))); ok {
			t.Errorf("CallPure(%q) accepted %d args", name, sig.args+1)
		}
	}
	if v, ok := CallPure("toupper", []Value{IntVal('a')}); !ok || v != IntVal('A') {
		t.Errorf("CallPure(toupper, 'a') = %+v, %v", v, ok)
	}
	if v, ok := CallPure("fmin", []Value{FloatVal(0), FloatVal(math.Copysign(0, -1))}); !ok || v != FloatVal(math.Copysign(0, -1)) {
		t.Errorf("CallPure(fmin, 0, -0) = %+v, %v; want -0", v, ok)
	}
	if _, ok := CallPure("putchar", []Value{IntVal('a')}); ok {
		t.Error("CallPure ran the impure putchar")
	}
}

// CallPure shares one machine across goroutines, so that machine must
// stay read-only: concurrent callers must not race on it.
func TestCallPureConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if v, ok := CallPure("sqrt", []Value{FloatVal(16)}); !ok || v != FloatVal(4) {
					t.Errorf("CallPure(sqrt, 16) = %+v, %v; want 4", v, ok)
					return
				}
			}
		}()
	}
	wg.Wait()
}
