package analysis

import (
	"fmt"

	"repro/internal/minic"
)

// This file implements the directive verifier (HD101..HD110). The paper's
// translator trusts directives; these checks catch the mistakes §3.2 leaves
// as undefined behavior. Checks run in stages and stop at the first stage
// that reports: later checks would only cascade from the same root cause.

// clauseSpec describes one legal clause.
type clauseSpec struct {
	kind clauseKind
	// combinerOnly restricts the clause to combiner regions.
	combinerOnly bool
}

type clauseKind int

const (
	clauseMarker clauseKind = iota // mapper/combiner: no arguments
	clauseIdent                    // exactly one identifier argument
	clauseInt                      // exactly one integer argument
	clauseList                     // one or more identifier arguments
)

var clauseSpecs = map[string]clauseSpec{
	"mapper":       {kind: clauseMarker},
	"combiner":     {kind: clauseMarker},
	"key":          {kind: clauseIdent},
	"value":        {kind: clauseIdent},
	"keyin":        {kind: clauseIdent, combinerOnly: true},
	"valuein":      {kind: clauseIdent, combinerOnly: true},
	"keylength":    {kind: clauseInt},
	"vallength":    {kind: clauseInt},
	"kvpairs":      {kind: clauseInt},
	"blocks":       {kind: clauseInt},
	"threads":      {kind: clauseInt},
	"firstprivate": {kind: clauseList},
	"sharedRO":     {kind: clauseList},
	"sharedro":     {kind: clauseList},
	"texture":      {kind: clauseList},
}

func (a *analyzer) directivePass(r *regionInfo) {
	stages := []func(r *regionInfo) bool{
		a.checkClauseSyntax,
		a.checkClauseDuplicates,
		a.checkRegionKind,
		a.checkRequiredClauses,
		a.checkClauseResolution,
		a.checkLengthClauses,
		a.checkRegionUsage,
	}
	for _, stage := range stages {
		if stage(r) {
			return
		}
	}
}

// checkClauseSyntax reports HD101 for unknown or malformed clauses.
func (a *analyzer) checkClauseSyntax(r *regionInfo) bool {
	pos := r.pragma.Pos
	n := len(a.diags)
	for _, cl := range r.clauses {
		spec, known := clauseSpecs[cl.name]
		switch {
		case cl.bad:
			a.report("HD101", pos,
				fmt.Sprintf("malformed clause %q in mapreduce pragma", cl.name),
				"balance the clause's parentheses")
		case !known:
			a.report("HD101", pos,
				fmt.Sprintf("unknown clause %q in mapreduce pragma", cl.name),
				"valid clauses: mapper, combiner, key, value, keyin, valuein, keylength, vallength, kvpairs, blocks, threads, firstprivate, sharedRO, texture")
		case spec.kind == clauseMarker && len(cl.args) > 0:
			a.report("HD101", pos,
				fmt.Sprintf("clause %q takes no arguments", cl.name), "")
		case (spec.kind == clauseIdent || spec.kind == clauseInt) && len(cl.args) != 1:
			a.report("HD101", pos,
				fmt.Sprintf("clause %q requires exactly one argument, got %d", cl.name, len(cl.args)), "")
		case spec.kind == clauseInt && len(cl.args) == 1 && cl.oneInt() <= 0:
			a.report("HD101", pos,
				fmt.Sprintf("clause %q requires a positive integer argument, got %q", cl.name, cl.one()), "")
		case spec.kind == clauseList && len(cl.args) == 0:
			a.report("HD101", pos,
				fmt.Sprintf("clause %q requires at least one variable", cl.name), "")
		}
	}
	return len(a.diags) > n
}

// checkClauseDuplicates reports HD102 for repeated singleton clauses and for
// a variable listed twice across firstprivate/sharedRO/texture.
func (a *analyzer) checkClauseDuplicates(r *regionInfo) bool {
	pos := r.pragma.Pos
	n := len(a.diags)
	seen := map[string]bool{}
	for _, cl := range r.clauses {
		name := cl.name
		if name == "sharedro" {
			name = "sharedRO"
		}
		if spec := clauseSpecs[cl.name]; spec.kind == clauseList {
			continue
		}
		if seen[name] {
			a.report("HD102", pos,
				fmt.Sprintf("duplicate clause %q in mapreduce pragma", name),
				"keep a single occurrence")
		}
		seen[name] = true
	}
	classified := map[string]string{}
	for _, cl := range r.clauses {
		name := cl.name
		if name == "sharedro" {
			name = "sharedRO"
		}
		if spec := clauseSpecs[cl.name]; spec.kind != clauseList {
			continue
		}
		for _, v := range cl.args {
			if prev, ok := classified[v]; ok {
				a.report("HD102", pos,
					fmt.Sprintf("variable %q classified twice: %s and %s", v, prev, name),
					"list each variable in at most one classification clause")
				continue
			}
			classified[v] = name
		}
	}
	return len(a.diags) > n
}

// checkRegionKind reports HD103 unless exactly one of mapper/combiner is
// present.
func (a *analyzer) checkRegionKind(r *regionInfo) bool {
	if r.kindClauses == 1 {
		return false
	}
	msg := "mapreduce pragma has neither mapper nor combiner clause"
	if r.kindClauses > 1 {
		msg = "mapreduce pragma has both mapper and combiner clauses"
	}
	a.report("HD103", r.pragma.Pos, msg, "mark the region as exactly one of mapper or combiner")
	return true
}

// checkRequiredClauses reports HD104 for missing key/value (and, for
// combiners, keyin/valuein) and HD105 for combiner-only clauses on mappers.
func (a *analyzer) checkRequiredClauses(r *regionInfo) bool {
	pos := r.pragma.Pos
	n := len(a.diags)
	if !r.combiner {
		for _, cl := range r.clauses {
			if spec, ok := clauseSpecs[cl.name]; ok && spec.combinerOnly {
				a.report("HD105", pos,
					fmt.Sprintf("clause %q is only valid on combiner regions", cl.name),
					"remove the clause or mark the region combiner")
			}
		}
		if len(a.diags) > n {
			return true
		}
	}
	missing := func(clause, name string) {
		if name == "" {
			a.report("HD104", pos,
				fmt.Sprintf("%s region is missing the %s clause", r.kindName(), clause),
				fmt.Sprintf("add %s(<variable>)", clause))
		}
	}
	missing("key", r.key)
	missing("value", r.value)
	if r.combiner {
		missing("keyin", r.keyIn)
		missing("valuein", r.valueIn)
	}
	return len(a.diags) > n
}

// checkClauseResolution reports HD106 when a clause names a variable that
// is not visible at the region.
func (a *analyzer) checkClauseResolution(r *regionInfo) bool {
	pos := r.pragma.Pos
	n := len(a.diags)
	check := func(clause, name string) {
		if name == "" {
			return
		}
		if _, ok := r.syms[name]; !ok {
			a.report("HD106", pos,
				fmt.Sprintf("clause %s(%s) names a variable that is not visible at the region", clause, name),
				"declare the variable before the pragma or fix the name")
		}
	}
	check("key", r.key)
	check("value", r.value)
	check("keyin", r.keyIn)
	check("valuein", r.valueIn)
	for _, v := range r.firstPrivate {
		check("firstprivate", v)
	}
	for _, v := range r.sharedRO {
		check("sharedRO", v)
	}
	for _, v := range r.texture {
		check("texture", v)
	}
	return len(a.diags) > n
}

// checkLengthClauses reports HD107 when keylength/vallength contradict the
// declared type of the key/value variable.
func (a *analyzer) checkLengthClauses(r *regionInfo) bool {
	n := len(a.diags)
	a.checkLength(r, "keylength", r.keyLen, "key", r.key)
	a.checkLength(r, "vallength", r.valLen, "value", r.value)
	return len(a.diags) > n
}

func (a *analyzer) checkLength(r *regionInfo, lenClause string, lenVal int, varClause, varName string) {
	if lenVal == 0 || varName == "" {
		return
	}
	sym := r.syms[varName]
	if sym == nil || sym.Type == nil {
		return
	}
	t := sym.Type
	switch {
	case t.Kind == minic.TypeArray && t.Len > 0 && lenVal > t.Len:
		a.report("HD107", r.pragma.Pos,
			fmt.Sprintf("%s(%d) exceeds the declared capacity of %s(%s), which is %s",
				lenClause, lenVal, varClause, varName, t),
			fmt.Sprintf("lower %s to at most %d or widen the array", lenClause, t.Len))
	case t.IsNumeric() && lenVal != t.Size():
		a.report("HD107", r.pragma.Pos,
			fmt.Sprintf("%s(%d) disagrees with %s(%s) of type %s (%d bytes)",
				lenClause, lenVal, varClause, varName, t, t.Size()),
			fmt.Sprintf("drop %s: fixed-size types carry their own length", lenClause))
	}
}

// checkRegionUsage reports HD108 (emit/read variables disagree with the
// clauses), HD109 (combiner value never accumulated), and HD110 (no emit
// at all).
func (a *analyzer) checkRegionUsage(r *regionInfo) bool {
	n := len(a.diags)
	printfs := 0
	minic.WalkExprs(r.pragma.Body, func(e minic.Expr) bool {
		c, ok := e.(*minic.Call)
		if !ok {
			return true
		}
		switch c.Name {
		case "printf":
			printfs++
			a.checkEmitArgs(r, c)
		case "scanf":
			if r.combiner {
				a.checkReadArgs(r, c)
			}
		}
		return true
	})
	if printfs == 0 {
		a.report("HD110", r.pragma.Pos,
			fmt.Sprintf("%s region never emits a key/value pair (no printf call)", r.kindName()),
			"emit with printf(\"...\", key, value) inside the region")
	}
	if r.combiner && r.value != "" {
		if sym := r.syms[r.value]; sym != nil && sym.Type != nil && !sym.Type.IsPointerLike() {
			if !accumulates(r.pragma.Body, sym) {
				a.report("HD109", r.pragma.Pos,
					fmt.Sprintf("combiner value variable %q is never accumulated in the region", r.value),
					fmt.Sprintf("combine the incoming %s into %s (e.g. %s += %s)", r.valueIn, r.value, r.value, r.valueIn))
			}
		}
	}
	return len(a.diags) > n
}

// checkEmitArgs verifies a two-argument printf emit against key/value.
// printf calls with a different arity (progress messages, multi-part reduce
// output) are left alone: only the canonical `printf(fmt, k, v)` emit form
// is translated to emitKV.
func (a *analyzer) checkEmitArgs(r *regionInfo, c *minic.Call) {
	if len(c.Args) != 3 {
		return
	}
	a.checkKVArg(r, c, "key", r.key, c.Args[1])
	a.checkKVArg(r, c, "value", r.value, c.Args[2])
}

// checkReadArgs verifies a two-argument scanf read against keyin/valuein.
func (a *analyzer) checkReadArgs(r *regionInfo, c *minic.Call) {
	if len(c.Args) != 3 {
		return
	}
	a.checkKVArg(r, c, "keyin", r.keyIn, c.Args[1])
	a.checkKVArg(r, c, "valuein", r.valueIn, c.Args[2])
}

func (a *analyzer) checkKVArg(r *regionInfo, c *minic.Call, clause, want string, arg minic.Expr) {
	if want == "" {
		return
	}
	// Strip the & that scanf arguments carry.
	if u, ok := arg.(*minic.Unary); ok && u.Op == "&" {
		arg = u.X
	}
	id, ok := arg.(*minic.Ident)
	if !ok {
		// Literals and computed expressions are legal emit arguments.
		return
	}
	if id.Name != want {
		verb := "emits"
		call := "printf"
		if c.Name == "scanf" {
			verb = "reads"
			call = "scanf"
		}
		a.report("HD108", c.Pos,
			fmt.Sprintf("%s %s %q where the directive declares %s(%s)", call, verb, id.Name, clause, want),
			fmt.Sprintf("use %s in the %s position or update the %s clause", want, clause, clause))
	}
}

// accumulates reports whether the region updates sym from its prior value:
// a compound assignment, ++/--, or `sym = ...sym...`.
func accumulates(region minic.Stmt, sym *minic.Symbol) bool {
	found := false
	minic.WalkExprs(region, func(e minic.Expr) bool {
		if found {
			return false
		}
		switch x := e.(type) {
		case *minic.Assign:
			id, ok := x.L.(*minic.Ident)
			if !ok || id.Sym != sym {
				return true
			}
			if x.Op != "=" || readsSym(x.R, sym) {
				found = true
			}
		case *minic.Unary:
			if x.Op == "++" || x.Op == "--" {
				if id, ok := x.X.(*minic.Ident); ok && id.Sym == sym {
					found = true
				}
			}
		case *minic.Postfix:
			if id, ok := x.X.(*minic.Ident); ok && id.Sym == sym {
				found = true
			}
		}
		return true
	})
	return found
}

func readsSym(e minic.Expr, sym *minic.Symbol) bool {
	found := false
	minic.Inspect(e, func(x minic.Expr) bool {
		if id, ok := x.(*minic.Ident); ok && id.Sym == sym {
			found = true
		}
		return !found
	})
	return found
}
