package main

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// TestRecordedReferences checks refs.go against one untraced op of every
// workload at the default seed. On a mismatch it prints the table to
// record.
func TestRecordedReferences(t *testing.T) {
	var lit strings.Builder
	ok := true
	for _, w := range workloads {
		in, err := w.prepare(defaultSeed)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		o, err := in.op()
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if err := in.invariants(o); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
		got := o.reference()
		fmt.Fprintf(&lit, "\t%q: {\n\t\tdigest:    %q,\n\t\tmakespans: %#v,\n\t},\n", w.name, got.digest, got.makespans)
		if !reflect.DeepEqual(got, recordedRefs[w.name]) {
			ok = false
		}
	}
	if !ok {
		t.Errorf("recorded references are stale; record:\n%s", lit.String())
	}
}
