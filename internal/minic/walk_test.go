package minic

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// walkSrc holds every statement kind and every expression kind.
const walkSrc = `
int g[4];
int f(int x) { return x; }
int main() {
	int a = 1, b;
	;
	if (a < 2) { b = -a; } else b = (long)a;
	while (b) { b--; break; }
	for (a = 0; a < 3; a++) { continue; }
	#pragma mapreduce mapper key(a) value(b)
	while (a) { g[a] = f(a) ? 'c' : 1.5; printf("%d", sizeof(int)); }
	return a;
}`

func walkLabel(n Node) string {
	kind := strings.TrimPrefix(fmt.Sprintf("%T", n), "*minic.")
	switch x := n.(type) {
	case *Ident:
		return kind + " " + x.Name
	case *IntLit:
		return fmt.Sprintf("%s %d", kind, x.Value)
	case *Unary:
		return kind + " " + x.Op
	case *Postfix:
		return kind + " " + x.Op
	case *Binary:
		return kind + " " + x.Op
	case *Call:
		return kind + " " + x.Name
	}
	return kind
}

func parseWalkSrc(t *testing.T) *Block {
	t.Helper()
	prog, err := Parse(walkSrc)
	if err != nil {
		t.Fatal(err)
	}
	return prog.Func("main").Body
}

// TestWalkOrder pins the documented visit order: statements pre-order
// (For: Init then Body), each statement's own expressions when it is
// visited (For: Cond then Post, before Init's), operands left to right.
func TestWalkOrder(t *testing.T) {
	body := parseWalkSrc(t)
	var got []string
	seen := map[string]bool{}
	WalkStmts(body, func(s Stmt) {
		got = append(got, walkLabel(s))
		seen[walkLabel(s)] = true
		StmtExprs(s, func(e Expr) {
			Inspect(e, func(x Expr) bool {
				got = append(got, "  "+walkLabel(x))
				seen[strings.Fields(walkLabel(x))[0]] = true
				return true
			})
		})
	})
	want := []string{
		"Block",
		"DeclStmt", "  IntLit 1",
		"EmptyStmt",
		"If", "  Binary <", "  Ident a", "  IntLit 2",
		"Block",
		"ExprStmt", "  Assign", "  Ident b", "  Unary -", "  Ident a",
		"ExprStmt", "  Assign", "  Ident b", "  Cast", "  Ident a",
		"While", "  Ident b",
		"Block",
		"ExprStmt", "  Postfix --", "  Ident b",
		"Break",
		"For", "  Binary <", "  Ident a", "  IntLit 3", "  Postfix ++", "  Ident a",
		"ExprStmt", "  Assign", "  Ident a", "  IntLit 0",
		"Block",
		"Continue",
		"PragmaStmt",
		"While", "  Ident a",
		"Block",
		"ExprStmt", "  Assign", "  Index", "  Ident g", "  Ident a",
		"  Cond", "  Call f", "  Ident a", "  CharLit", "  FloatLit",
		"ExprStmt", "  Call printf", "  StrLit", "  SizeofType",
		"Return", "  Ident a",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("walk order:\n got %q\nwant %q", got, want)
	}
	for _, kind := range []string{
		"DeclStmt", "ExprStmt", "EmptyStmt", "Block", "If", "While", "For", "Return",
		"Break", "Continue", "PragmaStmt",
		"Ident", "IntLit", "FloatLit", "CharLit", "StrLit", "Unary", "Postfix",
		"Binary", "Assign", "Cond", "Call", "Index", "Cast", "SizeofType",
	} {
		if !seen[kind] {
			t.Errorf("walk never visited a %s", kind)
		}
	}

	var all []string
	WalkExprs(body, func(e Expr) bool {
		all = append(all, "  "+walkLabel(e))
		return true
	})
	var exprsOnly []string
	for _, w := range want {
		if strings.HasPrefix(w, "  ") {
			exprsOnly = append(exprsOnly, w)
		}
	}
	if !reflect.DeepEqual(all, exprsOnly) {
		t.Errorf("WalkExprs order:\n got %q\nwant %q", all, exprsOnly)
	}
}

// TestInspectPrune checks that returning false skips exactly the subtree
// below the node just visited: the node itself and everything after it
// are still visited.
func TestInspectPrune(t *testing.T) {
	body := parseWalkSrc(t)
	var got []string
	WalkExprs(body, func(e Expr) bool {
		got = append(got, walkLabel(e))
		switch e.(type) {
		case *Cond, *Call, *Unary:
			return false
		}
		return true
	})
	want := []string{
		"IntLit 1",
		"Binary <", "Ident a", "IntLit 2",
		"Assign", "Ident b", "Unary -",
		"Assign", "Ident b", "Cast", "Ident a",
		"Ident b",
		"Postfix --", "Ident b",
		"Binary <", "Ident a", "IntLit 3", "Postfix ++", "Ident a",
		"Assign", "Ident a", "IntLit 0",
		"Ident a",
		"Assign", "Index", "Ident g", "Ident a", "Cond",
		"Call printf",
		"Ident a",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("pruned walk:\n got %q\nwant %q", got, want)
	}
}
