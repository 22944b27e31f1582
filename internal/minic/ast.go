package minic

import "strings"

// Node is implemented by all AST nodes.
type Node interface {
	nodePos() Pos
}

// NodePos returns n's source position (zero Pos for nil-typed nodes).
func NodePos(n Node) Pos {
	if n == nil {
		return Pos{}
	}
	return n.nodePos()
}

// ---- Types ----

// TypeKind enumerates MiniC types.
type TypeKind int

// Type kinds. Unsigned and size_t collapse onto Int/Long; this matches the
// needs of the paper's benchmarks, which use the types only for storage.
const (
	TypeVoid TypeKind = iota
	TypeChar
	TypeInt
	TypeLong
	TypeFloat
	TypeDouble
	TypePointer
	TypeArray
)

// Type describes a MiniC type. Pointer and Array types carry Elem;
// Array additionally carries Len (the declared constant length, or -1 when
// the length is derived from an initializer or unspecified).
type Type struct {
	Kind TypeKind
	Elem *Type
	Len  int
}

// Basic type singletons.
var (
	VoidType   = &Type{Kind: TypeVoid}
	CharType   = &Type{Kind: TypeChar}
	IntType    = &Type{Kind: TypeInt}
	LongType   = &Type{Kind: TypeLong}
	FloatType  = &Type{Kind: TypeFloat}
	DoubleType = &Type{Kind: TypeDouble}
)

// PointerTo returns the pointer type to elem.
func PointerTo(elem *Type) *Type { return &Type{Kind: TypePointer, Elem: elem} }

// ArrayOf returns the array type of n elems.
func ArrayOf(elem *Type, n int) *Type { return &Type{Kind: TypeArray, Elem: elem, Len: n} }

// IsNumeric reports whether t is an arithmetic type.
func (t *Type) IsNumeric() bool {
	switch t.Kind {
	case TypeChar, TypeInt, TypeLong, TypeFloat, TypeDouble:
		return true
	}
	return false
}

// IsFloat reports whether t is a floating type.
func (t *Type) IsFloat() bool {
	return t.Kind == TypeFloat || t.Kind == TypeDouble
}

// IsPointerLike reports whether t is a pointer or array.
func (t *Type) IsPointerLike() bool {
	return t.Kind == TypePointer || t.Kind == TypeArray
}

// ElemType returns the pointee/element type or nil.
func (t *Type) ElemType() *Type { return t.Elem }

// scalarSizes holds the storage size in bytes of every kind but arrays.
var scalarSizes = [...]int{TypeChar: 1, TypeInt: 4, TypeFloat: 4, TypeLong: 8, TypeDouble: 8, TypePointer: 8}

// Size returns the storage size in bytes used by the timing model (not the
// interpreter, which uses one cell per element). It is small enough to
// inline into every object access; arrays take arraySize.
func (t *Type) Size() int {
	if t.Kind == TypeArray {
		return t.arraySize()
	}
	return scalarSizes[t.Kind]
}

// arraySize is Size for an array type.
func (t *Type) arraySize() int {
	if t.Len < 0 {
		return 8
	}
	return t.Len * t.Elem.Size()
}

// String renders the type in C syntax.
func (t *Type) String() string {
	if t == nil {
		return "<nil>"
	}
	switch t.Kind {
	case TypeVoid:
		return "void"
	case TypeChar:
		return "char"
	case TypeInt:
		return "int"
	case TypeLong:
		return "long"
	case TypeFloat:
		return "float"
	case TypeDouble:
		return "double"
	case TypePointer:
		return t.Elem.String() + "*"
	case TypeArray:
		if t.Len < 0 {
			return t.Elem.String() + "[]"
		}
		return t.Elem.String() + "[" + itoa(t.Len) + "]"
	default:
		return "?"
	}
}

// Equal reports structural type equality.
func (t *Type) Equal(o *Type) bool {
	if t == nil || o == nil {
		return t == o
	}
	if t.Kind != o.Kind {
		return false
	}
	switch t.Kind {
	case TypePointer:
		return t.Elem.Equal(o.Elem)
	case TypeArray:
		return t.Len == o.Len && t.Elem.Equal(o.Elem)
	}
	return true
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	neg := n < 0
	if neg {
		n = -n
	}
	var b [24]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		i--
		b[i] = '-'
	}
	return string(b[i:])
}

// ---- Expressions ----

// Expr is an expression node. Every expression carries its computed type
// after semantic analysis (nil before).
type Expr interface {
	Node
	exprNode()
	// Type returns the semantic type (set by Check).
	Type() *Type
}

type exprBase struct {
	Pos Pos
	Typ *Type
}

func (e *exprBase) nodePos() Pos { return e.Pos }
func (e *exprBase) exprNode()    {}

// Type returns the type computed by semantic analysis.
func (e *exprBase) Type() *Type { return e.Typ }

// SetType records the expression's semantic type (used by sema and by the
// translator when it rewrites trees).
func (e *exprBase) SetType(t *Type) { e.Typ = t }

// Ident is a variable reference.
type Ident struct {
	exprBase
	Name string
	// Sym is filled by semantic analysis with the resolved symbol.
	Sym *Symbol
}

// IntLit is an integer literal.
type IntLit struct {
	exprBase
	Value int64
}

// FloatLit is a floating literal.
type FloatLit struct {
	exprBase
	Value float64
}

// CharLit is a character literal.
type CharLit struct {
	exprBase
	Value byte
}

// StrLit is a string literal (escapes already decoded).
type StrLit struct {
	exprBase
	Value string
}

// Unary is a prefix unary operation: one of - ! ~ & * ++ --.
type Unary struct {
	exprBase
	Op string
	X  Expr
}

// Postfix is a postfix ++ or --.
type Postfix struct {
	exprBase
	Op string
	X  Expr
}

// Binary is an infix binary operation (arithmetic, relational, logical,
// bitwise, shifts).
type Binary struct {
	exprBase
	Op   string
	L, R Expr
}

// Assign is an assignment, possibly compound (Op is "=", "+=", ...).
type Assign struct {
	exprBase
	Op   string
	L, R Expr
}

// Cond is the ternary ?: operator.
type Cond struct {
	exprBase
	C, T, F Expr
}

// Call is a function call. The callee is an identifier (MiniC has no
// function pointers).
type Call struct {
	exprBase
	Name string
	Args []Expr
	// Builtin is set by sema when Name resolves to a runtime builtin
	// rather than a user function.
	Builtin bool
}

// Index is array subscription a[i].
type Index struct {
	exprBase
	X   Expr
	Idx Expr
}

// Cast is an explicit C cast.
type Cast struct {
	exprBase
	To *Type
	X  Expr
}

// SizeofType is sizeof(type). sizeof(expr) is normalized to SizeofType in
// the parser using the expression's syntactic type when resolvable.
type SizeofType struct {
	exprBase
	Of *Type
}

// ---- Statements ----

// Stmt is a statement node.
type Stmt interface {
	Node
	stmtNode()
}

type stmtBase struct{ Pos Pos }

func (s *stmtBase) nodePos() Pos { return s.Pos }
func (s *stmtBase) stmtNode()    {}

// Declarator is one declared name within a DeclStmt.
type Declarator struct {
	Name string
	Type *Type
	Init Expr // may be nil
	// Sym is filled by semantic analysis.
	Sym *Symbol
}

// DeclStmt declares one or more variables.
type DeclStmt struct {
	stmtBase
	Decls []*Declarator
}

// ExprStmt evaluates an expression for effect.
type ExprStmt struct {
	stmtBase
	X Expr
}

// EmptyStmt is a lone semicolon.
type EmptyStmt struct{ stmtBase }

// Block is a brace-enclosed statement list with its own scope.
type Block struct {
	stmtBase
	Stmts []Stmt
}

// If is an if/else statement.
type If struct {
	stmtBase
	Cond Expr
	Then Stmt
	Else Stmt // may be nil
}

// While is a while loop.
type While struct {
	stmtBase
	Cond Expr
	Body Stmt
}

// For is a for loop; any of Init/Cond/Post may be nil. Init may be a
// DeclStmt or ExprStmt.
type For struct {
	stmtBase
	Init Stmt
	Cond Expr
	Post Expr
	Body Stmt
}

// Return returns from the enclosing function; X may be nil.
type Return struct {
	stmtBase
	X Expr
}

// Break exits the nearest loop.
type Break struct{ stmtBase }

// Continue jumps to the next iteration of the nearest loop.
type Continue struct{ stmtBase }

// PragmaStmt attaches a raw pragma line to the statement that follows it.
// The HeteroDoop translator recognizes `mapreduce ...` pragma text.
type PragmaStmt struct {
	stmtBase
	Text string
	Body Stmt
}

// IsMapReduce reports whether the pragma is a HeteroDoop directive.
func (p *PragmaStmt) IsMapReduce() bool {
	return strings.HasPrefix(strings.TrimSpace(p.Text), "mapreduce")
}

// Clause is one `name(arg, ...)` group of a pragma line.
type Clause struct {
	Name string
	Args []string
	// Off is the byte offset of the piece in the scanned text.
	Off int
	// Stray marks a character that starts no clause (Name holds it).
	// Unclosed marks a clause whose parentheses never close (Args holds
	// the rest of the text's arguments).
	Stray, Unclosed bool
}

// ScanClauses splits `name(arg, arg) name name(arg)` pragma text into
// clauses. It keeps duplicates and records malformed pieces instead of
// failing, so the translator can reject the first one and the directive
// verifier can report each one.
func ScanClauses(text string) []Clause {
	var out []Clause
	i, n := 0, len(text)
	for i < n {
		for i < n && (text[i] == ' ' || text[i] == '\t' || text[i] == ',') {
			i++
		}
		if i >= n {
			break
		}
		start := i
		for i < n && isWordByte(text[i]) {
			i++
		}
		if i == start {
			out = append(out, Clause{Name: string(text[i]), Off: i, Stray: true})
			i++
			continue
		}
		cl := Clause{Name: text[start:i], Off: start}
		for i < n && text[i] == ' ' {
			i++
		}
		if i < n && text[i] == '(' {
			depth := 1
			i++
			argStart := i
			for i < n && depth > 0 {
				switch text[i] {
				case '(':
					depth++
				case ')':
					depth--
				}
				if depth > 0 {
					i++
				}
			}
			cl.Args = splitClauseArgs(text[argStart:i])
			if depth != 0 {
				cl.Unclosed = true
			}
			i++ // closing paren, or past the end
		}
		out = append(out, cl)
	}
	return out
}

func splitClauseArgs(raw string) []string {
	var out []string
	for _, a := range strings.Split(raw, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

func isWordByte(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
}

// ---- Declarations ----

// Param is a function parameter.
type Param struct {
	Name string
	Type *Type
	Sym  *Symbol
}

// FuncDecl is a function definition.
type FuncDecl struct {
	Pos    Pos
	Name   string
	Ret    *Type
	Params []*Param
	Body   *Block
}

func (f *FuncDecl) nodePos() Pos { return f.Pos }

// Program is a parsed translation unit.
type Program struct {
	Funcs   []*FuncDecl
	Globals []*DeclStmt
	// Source keeps the original text for diagnostics and re-emission.
	Source string
	// File is the source file name used in diagnostics ("" when parsed
	// from an in-memory string).
	File string
}

// Func returns the function with the given name, or nil.
func (p *Program) Func(name string) *FuncDecl {
	for _, f := range p.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// ---- Symbols ----

// SymbolKind distinguishes what a name denotes.
type SymbolKind int

// Symbol kinds.
const (
	SymVar SymbolKind = iota
	SymParam
	SymFunc
	SymBuiltin
)

// Symbol is a resolved name. The interpreter allocates storage per symbol;
// the translator classifies symbols into GPU memory spaces.
type Symbol struct {
	Name string
	Kind SymbolKind
	Type *Type
	// Global marks file-scope variables.
	Global bool
}
