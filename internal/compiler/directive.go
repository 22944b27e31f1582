// Package compiler implements the HeteroDoop source-to-source translator
// (paper §4): it parses `#pragma mapreduce` directives (Table 1), extracts
// map and combine kernel regions, classifies variables into GPU memory
// spaces per Algorithm 1, substitutes C stdio calls with GPU runtime
// intrinsics (getline→getRecord, printf→emitKV/storeKV, scanf→getKV), marks
// vectorization opportunities, and emits a CUDA-flavoured rendering of the
// generated kernels for inspection.
package compiler

import (
	"fmt"
	"strconv"

	"repro/internal/minic"
)

// RegionKind distinguishes the two directive-annotated region types.
type RegionKind int

// Region kinds.
const (
	RegionMapper RegionKind = iota
	RegionCombiner
)

func (k RegionKind) String() string {
	if k == RegionMapper {
		return "mapper"
	}
	return "combiner"
}

// Directive is a parsed `#pragma mapreduce ...` annotation (Table 1 of the
// paper).
type Directive struct {
	Kind RegionKind

	// Key / Value name the variables emitting KV pairs.
	Key   string
	Value string
	// KeyIn / ValueIn name the variables receiving incoming KV pairs
	// (combiner only).
	KeyIn   string
	ValueIn string

	// KeyLength / ValLength give emitted key/value lengths in bytes when
	// the variable types are not compiler-derivable; 0 means derive.
	KeyLength int
	ValLength int

	// FirstPrivate lists variables initialized before the region.
	FirstPrivate []string
	// SharedRO lists read-only variables (placed in constant or texture
	// memory by the translator).
	SharedRO []string
	// Texture lists read-only arrays forced into texture memory.
	Texture []string

	// KVPairs bounds the KV pairs emitted per record (mapper only;
	// 0 = unknown, over-allocate).
	KVPairs int
	// Blocks / Threads tune the kernel launch geometry (0 = default).
	Blocks  int
	Threads int
}

// ParseDirective parses the text of a mapreduce pragma (the part after
// `#pragma`), e.g. `mapreduce mapper key(word) value(one) keylength(30)`.
func ParseDirective(text string) (*Directive, error) {
	fields := minic.ScanClauses(text)
	for _, cl := range fields {
		switch {
		case cl.Stray:
			return nil, fmt.Errorf("compiler: malformed pragma near %q", text[cl.Off:])
		case cl.Unclosed:
			return nil, fmt.Errorf("compiler: unbalanced parentheses in pragma %q", text)
		}
	}
	if len(fields) == 0 || fields[0].Name != "mapreduce" {
		return nil, fmt.Errorf("compiler: not a mapreduce pragma: %q", text)
	}
	d := &Directive{KeyLength: 0}
	seenKind := false
	seen := map[string]bool{}
	// Singleton clauses may appear at most once; a silent
	// last-occurrence-wins rule would hide directive typos.
	once := func(name string) error {
		if seen[name] {
			return fmt.Errorf("compiler: duplicate clause %q in pragma %q", name, text)
		}
		seen[name] = true
		return nil
	}
	var err error
	for _, cl := range fields[1:] {
		switch cl.Name {
		case "mapper", "combiner":
			if seenKind {
				return nil, fmt.Errorf("compiler: pragma %q has more than one mapper/combiner clause", text)
			}
			if cl.Name == "combiner" {
				d.Kind = RegionCombiner
			} else {
				d.Kind = RegionMapper
			}
			seenKind = true
			continue
		}
		switch cl.Name {
		case "key", "value", "keyin", "valuein", "keylength", "vallength",
			"kvpairs", "blocks", "threads":
			if err := once(cl.Name); err != nil {
				return nil, err
			}
		}
		switch cl.Name {
		case "key":
			if d.Key, err = oneIdent(cl); err != nil {
				return nil, err
			}
		case "value":
			if d.Value, err = oneIdent(cl); err != nil {
				return nil, err
			}
		case "keyin":
			if d.KeyIn, err = oneIdent(cl); err != nil {
				return nil, err
			}
		case "valuein":
			if d.ValueIn, err = oneIdent(cl); err != nil {
				return nil, err
			}
		case "keylength":
			if d.KeyLength, err = oneInt(cl); err != nil {
				return nil, err
			}
		case "vallength":
			if d.ValLength, err = oneInt(cl); err != nil {
				return nil, err
			}
		case "firstprivate":
			d.FirstPrivate = append(d.FirstPrivate, cl.Args...)
		case "sharedRO", "sharedro":
			d.SharedRO = append(d.SharedRO, cl.Args...)
		case "texture":
			d.Texture = append(d.Texture, cl.Args...)
		case "kvpairs":
			if d.KVPairs, err = oneInt(cl); err != nil {
				return nil, err
			}
		case "blocks":
			if d.Blocks, err = oneInt(cl); err != nil {
				return nil, err
			}
		case "threads":
			if d.Threads, err = oneInt(cl); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("compiler: unknown clause %q in pragma %q", cl.Name, text)
		}
	}
	if !seenKind {
		return nil, fmt.Errorf("compiler: pragma %q has neither mapper nor combiner clause", text)
	}
	if d.Key == "" {
		return nil, fmt.Errorf("compiler: %s pragma missing required key clause", d.Kind)
	}
	if d.Value == "" {
		return nil, fmt.Errorf("compiler: %s pragma missing required value clause", d.Kind)
	}
	if d.Kind == RegionCombiner {
		if d.KeyIn == "" || d.ValueIn == "" {
			return nil, fmt.Errorf("compiler: combiner pragma requires keyin and valuein clauses")
		}
	} else if d.KeyIn != "" || d.ValueIn != "" {
		return nil, fmt.Errorf("compiler: keyin/valuein are valid only on the combiner")
	}
	return d, nil
}

func oneIdent(c minic.Clause) (string, error) {
	if len(c.Args) != 1 {
		return "", fmt.Errorf("compiler: clause %q wants exactly one argument, got %v", c.Name, c.Args)
	}
	return c.Args[0], nil
}

func oneInt(c minic.Clause) (int, error) {
	s, err := oneIdent(c)
	if err != nil {
		return 0, err
	}
	n, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("compiler: clause %q wants an integer literal, got %q", c.Name, s)
	}
	if n < 0 {
		return 0, fmt.Errorf("compiler: clause %q must be non-negative, got %d", c.Name, n)
	}
	return n, nil
}
