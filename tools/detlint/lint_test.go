package main

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// testFset and testImporter are shared by every case, so each imported
// package is type-checked from source once.
var (
	testFset     = token.NewFileSet()
	testImporter = importer.ForCompiler(testFset, "source", nil)
)

// lintOK lints src as the only file of its package.
func lintOK(t *testing.T, src string) []finding {
	t.Helper()
	file, err := parser.ParseFile(testFset, "test.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	fs, err := lintPackage(testFset, []*ast.File{file}, testImporter)
	if err != nil {
		t.Fatalf("type-check: %v", err)
	}
	return fs
}

func TestFlagsMathRandImport(t *testing.T) {
	fs := lintOK(t, `package p
import "math/rand"
var _ = rand.Int
`)
	if len(fs) != 1 || fs[0].rule != "rand-import" {
		t.Fatalf("want one rand-import finding, got %v", fs)
	}
}

func TestFlagsTimeNow(t *testing.T) {
	fs := lintOK(t, `package p
import "time"
func f() int64 { return time.Now().UnixNano() }
`)
	if len(fs) != 1 || fs[0].rule != "time-now" {
		t.Fatalf("want one time-now finding, got %v", fs)
	}
}

func TestRenamedTimeImportStillFlagged(t *testing.T) {
	fs := lintOK(t, `package p
import clock "time"
func f() clock.Time { return clock.Now() }
`)
	if len(fs) != 1 || fs[0].rule != "time-now" {
		t.Fatalf("want one time-now finding, got %v", fs)
	}
}

func TestOtherNowCallsNotFlagged(t *testing.T) {
	fs := lintOK(t, `package p
type clock struct{}
func (clock) Now() int64 { return 0 }
func f(c clock) int64 { return c.Now() }
`)
	if len(fs) != 0 {
		t.Fatalf("method Now on a non-time receiver should pass, got %v", fs)
	}
}

func TestFlagsMapRange(t *testing.T) {
	fs := lintOK(t, `package p
import "fmt"
func f() {
	m := map[string]int{}
	for k, v := range m {
		fmt.Println(k, v)
	}
}
`)
	if len(fs) != 1 || fs[0].rule != "map-iteration" {
		t.Fatalf("want one map-iteration finding, got %v", fs)
	}
}

func TestFlagsStructFieldMapRange(t *testing.T) {
	fs := lintOK(t, `package p
import "fmt"
type s struct{ series map[string]int }
func f(x *s) {
	for k := range x.series {
		fmt.Println(k)
	}
}
`)
	if len(fs) != 1 || fs[0].rule != "map-iteration" {
		t.Fatalf("want one map-iteration finding, got %v", fs)
	}
}

// TestFlagsMapTypeFromAnotherPackage needs the types: net/url declares
// url.Values as a map, which nothing in this file's syntax shows.
func TestFlagsMapTypeFromAnotherPackage(t *testing.T) {
	fs := lintOK(t, `package p
import (
	"fmt"
	"net/url"
)
func f(v url.Values) {
	for k := range v {
		fmt.Println(k)
	}
}
`)
	if len(fs) != 1 || fs[0].rule != "map-iteration" {
		t.Fatalf("want one map-iteration finding, got %v", fs)
	}
}

func TestFlagsNamedMapTypeRange(t *testing.T) {
	fs := lintOK(t, `package p
import "fmt"
type set map[string]bool
func members() set { return set{"a": true} }
func f() {
	for k := range members() {
		fmt.Println(k)
	}
}
`)
	if len(fs) != 1 || fs[0].rule != "map-iteration" {
		t.Fatalf("want one map-iteration finding, got %v", fs)
	}
}

func TestCollectKeysSortIdiomAllowed(t *testing.T) {
	fs := lintOK(t, `package p
import "sort"
func f(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
`)
	if len(fs) != 0 {
		t.Fatalf("collect-keys-sort idiom should pass, got %v", fs)
	}
}

func TestSliceRangeNotFlagged(t *testing.T) {
	fs := lintOK(t, `package p
import "fmt"
func f(xs []int) {
	for _, x := range xs {
		fmt.Println(x)
	}
}
`)
	if len(fs) != 0 {
		t.Fatalf("slice range should pass, got %v", fs)
	}
}

func TestIgnoreCommentSuppresses(t *testing.T) {
	fs := lintOK(t, `package p
import "fmt"
func f(m map[string]int) {
	n := 0
	//detlint:ignore order-independent summation
	for _, v := range m {
		n += v
	}
	fmt.Println(n)
}
`)
	if len(fs) != 0 {
		t.Fatalf("ignore comment should suppress, got %v", fs)
	}
}

func TestFlagsBareGoroutine(t *testing.T) {
	fs := lintOK(t, `package p
func f() {
	go func() {}()
}
`)
	if len(fs) != 1 || fs[0].rule != "bare-goroutine" {
		t.Fatalf("want one bare-goroutine finding, got %v", fs)
	}
}

func TestIgnoredGoroutineSuppressed(t *testing.T) {
	fs := lintOK(t, `package p
func f() {
	//detlint:ignore bare-goroutine: pool worker, results applied in event order
	go f()
}
`)
	if len(fs) != 0 {
		t.Fatalf("annotated goroutine should pass, got %v", fs)
	}
}

func TestFlagsSyncMap(t *testing.T) {
	fs := lintOK(t, `package p
import "sync"
var m sync.Map
func f() { m.Store("k", 1) }
`)
	if len(fs) != 1 || fs[0].rule != "sync-map" {
		t.Fatalf("want one sync-map finding, got %v", fs)
	}
}

func TestRenamedSyncImportStillFlagged(t *testing.T) {
	fs := lintOK(t, `package p
import s "sync"
type t struct{ m s.Map }
`)
	if len(fs) != 1 || fs[0].rule != "sync-map" {
		t.Fatalf("want one sync-map finding, got %v", fs)
	}
}

func TestSyncMutexNotFlagged(t *testing.T) {
	fs := lintOK(t, `package p
import "sync"
type t struct {
	mu sync.Mutex
	wg sync.WaitGroup
}
`)
	if len(fs) != 0 {
		t.Fatalf("sync.Mutex/WaitGroup should pass, got %v", fs)
	}
}

func TestOtherMapSelectorNotFlagged(t *testing.T) {
	fs := lintOK(t, `package p
type registry struct{ Map func() }
func f(r registry) { r.Map() }
`)
	if len(fs) != 0 {
		t.Fatalf("non-sync Map selector should pass, got %v", fs)
	}
}

func TestFindingFormat(t *testing.T) {
	fs := lintOK(t, `package p
import "math/rand"
var _ = rand.Int
`)
	if len(fs) != 1 {
		t.Fatalf("want one finding, got %v", fs)
	}
	if got := fs[0].String(); !strings.HasPrefix(got, "test.go:2: rand-import:") {
		t.Fatalf("finding format = %q", got)
	}
}
