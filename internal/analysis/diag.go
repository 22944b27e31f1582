// Package analysis implements hdlint, the HeteroDoop static-analysis suite:
// a multi-pass analyzer over MiniC programs and their translated GPU kernel
// regions. The paper's translator trusts `#pragma mapreduce` directives
// (§3.2 notes that incorrect directives yield undefined behavior); this
// package makes directive verification, dataflow checking, parallel
// legality, GPU safety, and IO purity first-class compile stages.
//
// The passes and their diagnostic code ranges:
//
//	HD0xx  frontend (parse/sema failures surfaced as diagnostics)
//	HD1xx  directive verifier (clause legality, lengths, emit consistency)
//	HD2xx  dataflow (use-before-init, dead stores, unused variables)
//	HD3xx  parallel legality (races Algorithm 1 cannot privatize)
//	HD4xx  GPU safety on the translated kernel (barriers, shared memory)
//	HD5xx  IO purity (only replaceable calls inside directive regions)
//	HD6xx  optimization facts (SSA/SCCP-derived constants, dead code,
//	       redundancy, and proven out-of-range subscripts)
package analysis

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/minic"
)

// Severity ranks a diagnostic.
type Severity int

// Severities, in increasing order.
const (
	SevInfo Severity = iota
	SevWarning
	SevError
)

func (s Severity) String() string {
	switch s {
	case SevInfo:
		return "info"
	case SevWarning:
		return "warning"
	case SevError:
		return "error"
	default:
		return "?"
	}
}

// Diagnostic is one structured finding: a stable code, a severity, a source
// position, a human message, and an optional suggested fix.
type Diagnostic struct {
	Code     string
	Severity Severity
	File     string
	Pos      minic.Pos
	Message  string
	Fix      string // suggested fix; "" when none applies
}

// String renders `file:line:col: severity: [CODE] message (fix: ...)`.
// When no file name is known the historical `minic:`-style prefix is used
// so in-memory lint runs stay readable.
func (d Diagnostic) String() string {
	s := fmt.Sprintf("%s: %s: [%s] %s", minic.ErrPrefix(d.File, d.Pos), d.Severity, d.Code, d.Message)
	if d.Fix != "" {
		s += fmt.Sprintf(" (fix: %s)", d.Fix)
	}
	return s
}

// Sort orders diagnostics by position, then code, for deterministic output.
func Sort(diags []Diagnostic) {
	sort.SliceStable(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Col != b.Pos.Col {
			return a.Pos.Col < b.Pos.Col
		}
		return a.Code < b.Code
	})
}

// MaxSeverity returns the highest severity present, or SevInfo-1 == -1 is
// never returned: an empty slice reports SevInfo.
func MaxSeverity(diags []Diagnostic) Severity {
	max := SevInfo
	for _, d := range diags {
		if d.Severity > max {
			max = d.Severity
		}
	}
	return max
}

// HasErrors reports whether any diagnostic is error-severity.
func HasErrors(diags []Diagnostic) bool {
	for _, d := range diags {
		if d.Severity == SevError {
			return true
		}
	}
	return false
}

// Clean reports whether diags contains nothing at warning severity or
// above. Info-level findings (e.g. redundant defensive initializations) do
// not count against cleanliness.
func Clean(diags []Diagnostic) bool {
	return MaxSeverity(diags) < SevWarning
}

// CodeInfo documents one diagnostic code for `hdlint -codes` and DESIGN.md.
type CodeInfo struct {
	Code     string
	Severity Severity
	Summary  string
}

// Catalog lists every diagnostic code the suite can emit, in code order.
var Catalog = []CodeInfo{
	{"HD001", SevError, "source fails to parse or type-check"},
	{"HD002", SevError, "directive region fails to translate to a GPU kernel"},
	{"HD101", SevError, "unknown clause in mapreduce pragma"},
	{"HD102", SevError, "duplicate clause or duplicate variable in a clause list"},
	{"HD103", SevError, "pragma has neither or both of mapper/combiner"},
	{"HD104", SevError, "missing required clause (key/value, keyin/valuein)"},
	{"HD105", SevError, "clause is not valid for this region kind"},
	{"HD106", SevError, "clause names a variable not visible at the region"},
	{"HD107", SevError, "key/value length clause inconsistent with the variable's type"},
	{"HD108", SevError, "emit/read calls use different variables than the key/value clauses"},
	{"HD109", SevWarning, "combiner value variable is never accumulated in the region"},
	{"HD110", SevWarning, "region emits no KV pairs (no printf call)"},
	{"HD201", SevWarning, "variable may be used before initialization"},
	{"HD202", SevWarning, "dead store: assigned value is never used"},
	{"HD203", SevWarning, "variable is declared but never used"},
	{"HD204", SevInfo, "redundant initialization: constant store is immediately overwritten"},
	{"HD301", SevWarning, "loop-carried dependence in mapper region: privatization changes semantics"},
	{"HD302", SevError, "write to a variable the directive declares read-only (sharedRO/texture)"},
	{"HD401", SevError, "warp-synchronous call under thread-divergent control flow"},
	{"HD402", SevError, "write-write conflict: region writes a variable placed in shared GPU memory"},
	{"HD403", SevError, "statically out-of-bounds index into a constant/texture array"},
	{"HD501", SevError, "call inside a directive region is not GPU-replaceable"},
	{"HD502", SevError, "function called from a directive region transitively performs forbidden IO"},
	{"HD601", SevInfo, "branch condition is provably constant (SCCP)"},
	{"HD602", SevInfo, "statement is provably unreachable"},
	{"HD603", SevInfo, "expression recomputes a value already computed on every path here"},
	{"HD604", SevInfo, "loop emits the same key/value pair every iteration"},
	{"HD605", SevError, "subscript is provably out of range for a fixed-length array"},
}

// catalogSeverity returns the documented severity for a code (used so
// passes and docs can't drift apart).
func catalogSeverity(code string) Severity {
	for _, c := range Catalog {
		if c.Code == code {
			return c.Severity
		}
	}
	return SevError
}

// frontendDiag wraps a parse/sema error as an HD001 diagnostic, recovering
// the position from the error's "file:line:col:" prefix when present.
func frontendDiag(file string, err error) Diagnostic {
	msg := err.Error()
	pos := minic.Pos{}
	for _, prefix := range []string{file + ":", "minic: "} {
		if prefix == ":" || !strings.HasPrefix(msg, prefix) {
			continue
		}
		rest := msg[len(prefix):]
		var l, c int
		var tail string
		if n, _ := fmt.Sscanf(rest, "%d:%d: %s", &l, &c, &tail); n >= 2 {
			pos = minic.Pos{Line: l, Col: c}
			if i := strings.Index(rest, ": "); i >= 0 {
				msg = rest[i+2:]
			}
		}
		break
	}
	return Diagnostic{
		Code:     "HD001",
		Severity: SevError,
		File:     file,
		Pos:      pos,
		Message:  msg,
	}
}

// stripPosPrefix removes a leading position prefix from nested error text
// so HD002 messages don't repeat the location twice.
func stripPosPrefix(file, msg string) string {
	if file != "" && strings.HasPrefix(msg, file+":") {
		rest := msg[len(file)+1:]
		var l, c int
		if n, _ := fmt.Sscanf(rest, "%d:%d:", &l, &c); n == 2 {
			if i := strings.Index(rest, ": "); i >= 0 {
				return rest[i+2:]
			}
		}
	}
	return msg
}
