package ir

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/minic"
)

// reachableBlocks returns the blocks reachable from f's entry.
func reachableBlocks(f *Func) map[*Block]bool {
	seen := map[*Block]bool{}
	var visit func(b *Block)
	visit = func(b *Block) {
		if seen[b] {
			return
		}
		seen[b] = true
		for _, s := range b.Succs {
			visit(s)
		}
	}
	visit(f.Entry)
	return seen
}

// nodeKinds renders a block's statement-level nodes as their Go types.
func nodeKinds(b *Block) string {
	var kinds []string
	for _, n := range b.Nodes {
		kinds = append(kinds, fmt.Sprintf("%T", n))
	}
	return strings.Join(kinds, " ")
}

// blockOf returns the block whose nodes include one of type T.
func blockOf[T minic.Node](t *testing.T, f *Func) *Block {
	t.Helper()
	for _, b := range f.Blocks {
		for _, n := range b.Nodes {
			if _, ok := n.(T); ok {
				return b
			}
		}
	}
	var zero T
	t.Fatalf("no block holds a %T node", zero)
	return nil
}

// onlyHeader returns the header of f's single loop: the target of its one
// back edge, an edge to a block that dominates its source.
func onlyHeader(t *testing.T, f *Func) *Block {
	t.Helper()
	var headers []*Block
	for b := range reachableBlocks(f) {
		for _, s := range b.Succs {
			if dominates(s, b) {
				headers = append(headers, s)
			}
		}
	}
	if len(headers) != 1 {
		t.Fatalf("back edges = %d, want 1", len(headers))
	}
	return headers[0]
}

// TestCFGShapes pins the graph ir lowers a function to, which the
// optimizer, the bytecode compiler and both lint families share, and the
// statement-level nodes each block lists for the HD2xx dataflow lints.
func TestCFGShapes(t *testing.T) {
	cases := []struct {
		name, src string
		check     func(t *testing.T, f *Func)
	}{
		{"straight-line", `int main() { int x; x = 1; return x; }`, func(t *testing.T, f *Func) {
			if got, want := nodeKinds(f.Entry), "*minic.DeclStmt *minic.ExprStmt *minic.Return"; got != want {
				t.Errorf("entry nodes = %s, want %s", got, want)
			}
		}},
		{"if-else-join", `int main() { int x; x = 0; if (x) { x = 1; } else { x = 2; } return x; }`, func(t *testing.T, f *Func) {
			e := f.Entry
			if len(e.Succs) != 2 || e.Cond == nil || e.Nodes[len(e.Nodes)-1] != minic.Node(e.Cond.Expr) {
				t.Fatalf("entry must end with its condition node and branch two ways: %s, %d succs", nodeKinds(e), len(e.Succs))
			}
			join := blockOf[*minic.Return](t, f)
			for _, arm := range e.Succs {
				if len(arm.Succs) != 1 || arm.Succs[0] != join {
					t.Errorf("arm block %d does not flow to the join", arm.ID)
				}
			}
			if len(join.Preds) != 2 {
				t.Errorf("join preds = %d, want 2", len(join.Preds))
			}
		}},
		{"while-back-edge", `int main() { int i; i = 0; while (i < 3) { i = i + 1; } return i; }`, func(t *testing.T, f *Func) {
			h := onlyHeader(t, f)
			if nodeKinds(h) != "*minic.Binary" || len(h.Succs) != 2 {
				t.Fatalf("header nodes %s, %d succs; want the condition and two succs", nodeKinds(h), len(h.Succs))
			}
			if h.Succs[1] != blockOf[*minic.Return](t, f) {
				t.Error("the false edge does not reach the return")
			}
		}},
		{"for-break-continue", `int main() {
	int s; s = 0;
	for (int i = 0; i < 10; i++) {
		if (i == 2) continue;
		if (i == 5) break;
		s = s + i;
	}
	return s;
}`, func(t *testing.T, f *Func) {
			ret, post := blockOf[*minic.Return](t, f), blockOf[*minic.Postfix](t, f)
			if len(ret.Preds) != 2 {
				t.Errorf("loop exit preds = %d, want 2 (condition, break)", len(ret.Preds))
			}
			if len(post.Preds) != 2 || len(post.Succs) != 1 || post.Succs[0] != onlyHeader(t, f) {
				t.Errorf("post block: %d preds, want 2 (body, continue), and one edge back to the header", len(post.Preds))
			}
			for b := range reachableBlocks(f) {
				if len(b.Succs) == 0 && len(b.Nodes) > 0 && b != ret {
					t.Errorf("reachable block %d (%s) has nodes but no successors", b.ID, nodeKinds(b))
				}
			}
		}},
		{"return-cuts-flow", `int main() { return 0; }`, func(t *testing.T, f *Func) {
			if len(reachableBlocks(f)) == len(f.Blocks) {
				t.Error("expected an unreachable block after return")
			}
		}},
		{"pragma-loop-in-place", `int main() {
	int x; x = 0;
	#pragma mapreduce mapper key(x) value(x)
	while (x < 3) { x = x + 1; }
	return x;
}`, func(t *testing.T, f *Func) {
			h := onlyHeader(t, f)
			if h.Preds[0] != f.Entry || !reachableBlocks(f)[blockOf[*minic.Return](t, f)] {
				t.Error("the pragma's loop is not linked between the entry and the return")
			}
		}},
		{"infinite-for", `int main() { int n; n = 0; for (;;) { n++; } return n; }`, func(t *testing.T, f *Func) {
			h := onlyHeader(t, f)
			if h.Cond != nil || len(h.Succs) != 1 || len(h.Nodes) != 0 {
				t.Errorf("header: cond %t, %d succs, nodes %q; want an unconditional jump to the body", h.Cond != nil, len(h.Succs), nodeKinds(h))
			}
			if ret := blockOf[*minic.Return](t, f); len(ret.Preds) != 0 {
				t.Errorf("code after the loop has %d preds, want none", len(ret.Preds))
			}
		}},
		{"infinite-for-break", `int main() { int n; n = 0; for (;;) { n++; if (n > 3) break; } return n; }`, func(t *testing.T, f *Func) {
			if h := onlyHeader(t, f); len(h.Succs) != 1 {
				t.Errorf("header succs = %d, want 1", len(h.Succs))
			}
			ret := blockOf[*minic.Return](t, f)
			if len(ret.Preds) != 1 || !reachableBlocks(f)[ret] {
				t.Errorf("code after the loop has %d preds, want one reachable break", len(ret.Preds))
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { c.check(t, buildFunc(t, c.src)) })
	}
}
