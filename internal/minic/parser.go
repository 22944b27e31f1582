package minic

import (
	"fmt"
)

// Parser builds a Program from a token stream.
type Parser struct {
	toks []Token
	pos  int
	file string
}

// Parse lexes and parses src into a Program (syntax only; run Check for
// semantic analysis).
func Parse(src string) (*Program, error) { return ParseFile("", src) }

// ParseFile is Parse with a file name threaded into error messages and the
// resulting Program, so downstream diagnostics print file:line:col.
func ParseFile(file, src string) (*Program, error) {
	toks, err := LexFile(file, src)
	if err != nil {
		return nil, err
	}
	p := &Parser{toks: toks, file: file}
	prog := &Program{Source: src, File: file}
	for !p.at(TokEOF) {
		if p.atPragma() {
			return nil, p.errf("pragma at file scope must precede a statement inside a function")
		}
		// Both globals and functions start with a type.
		save := p.pos
		typ, err := p.parseType()
		if err != nil {
			return nil, err
		}
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if p.atPunct("(") {
			fn, err := p.parseFuncRest(typ, name)
			if err != nil {
				return nil, err
			}
			prog.Funcs = append(prog.Funcs, fn)
			continue
		}
		// Global variable declaration: rewind and reuse declaration parsing.
		p.pos = save
		decl, err := p.parseDeclStmt()
		if err != nil {
			return nil, err
		}
		prog.Globals = append(prog.Globals, decl)
	}
	return prog, nil
}

func (p *Parser) cur() Token  { return p.toks[p.pos] }
func (p *Parser) next() Token { t := p.toks[p.pos]; p.pos++; return t }

func (p *Parser) at(k TokKind) bool { return p.cur().Kind == k }

func (p *Parser) atPunct(s string) bool {
	t := p.cur()
	return t.Kind == TokPunct && t.Text == s
}

func (p *Parser) atKeyword(s string) bool {
	t := p.cur()
	return t.Kind == TokKeyword && t.Text == s
}

func (p *Parser) atPragma() bool { return p.cur().Kind == TokPragma }

func (p *Parser) atType() bool {
	t := p.cur()
	return t.Kind == TokKeyword && IsTypeKeyword(t.Text)
}

func (p *Parser) eatPunct(s string) bool {
	if p.atPunct(s) {
		p.pos++
		return true
	}
	return false
}

func (p *Parser) expectPunct(s string) error {
	if !p.eatPunct(s) {
		return p.errf("expected %q, found %s", s, p.cur())
	}
	return nil
}

func (p *Parser) expectIdent() (string, error) {
	if !p.at(TokIdent) {
		return "", p.errf("expected identifier, found %s", p.cur())
	}
	return p.next().Text, nil
}

func (p *Parser) errf(format string, args ...any) error {
	return fmt.Errorf("%s: %s", ErrPrefix(p.file, p.cur().Pos), fmt.Sprintf(format, args...))
}

// parseType parses a base type with leading qualifiers and trailing '*'s.
func (p *Parser) parseType() (*Type, error) {
	if !p.atType() {
		return nil, p.errf("expected type, found %s", p.cur())
	}
	var base *Type
	sawUnsigned := false
	for p.atType() {
		t := p.next().Text
		switch t {
		case "const", "static", "signed":
			// qualifiers carry no semantics in MiniC
		case "unsigned":
			sawUnsigned = true
		case "void":
			base = VoidType
		case "char":
			base = CharType
		case "short", "int":
			base = IntType
		case "long":
			base = LongType
		case "size_t":
			base = LongType
		case "float":
			base = FloatType
		case "double":
			base = DoubleType
		}
	}
	if base == nil {
		if sawUnsigned {
			base = IntType // bare `unsigned`
		} else {
			return nil, p.errf("declaration lacks a base type")
		}
	}
	for p.eatPunct("*") {
		base = PointerTo(base)
	}
	return base, nil
}

func (p *Parser) parseFuncRest(ret *Type, name string) (*FuncDecl, error) {
	pos := p.cur().Pos
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	var params []*Param
	if !p.atPunct(")") {
		if p.atKeyword("void") && p.toks[p.pos+1].Kind == TokPunct && p.toks[p.pos+1].Text == ")" {
			p.next() // f(void)
		} else {
			for {
				pt, err := p.parseType()
				if err != nil {
					return nil, err
				}
				pname, err := p.expectIdent()
				if err != nil {
					return nil, err
				}
				// Array parameters decay to pointers.
				if p.eatPunct("[") {
					if p.at(TokIntLit) {
						p.next()
					}
					if err := p.expectPunct("]"); err != nil {
						return nil, err
					}
					pt = PointerTo(pt)
				}
				params = append(params, &Param{Name: pname, Type: pt})
				if !p.eatPunct(",") {
					break
				}
			}
		}
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	return &FuncDecl{Pos: pos, Name: name, Ret: ret, Params: params, Body: body}, nil
}

func (p *Parser) parseBlock() (*Block, error) {
	pos := p.cur().Pos
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	b := &Block{stmtBase: stmtBase{Pos: pos}}
	for !p.atPunct("}") {
		if p.at(TokEOF) {
			return nil, p.errf("unexpected EOF in block")
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		b.Stmts = append(b.Stmts, s)
	}
	p.next() // }
	return b, nil
}

func (p *Parser) parseStmt() (Stmt, error) {
	pos := p.cur().Pos
	switch {
	case p.atPragma():
		text := p.next().Text
		body, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		return &PragmaStmt{stmtBase: stmtBase{Pos: pos}, Text: text, Body: body}, nil
	case p.atPunct("{"):
		return p.parseBlock()
	case p.atPunct(";"):
		p.next()
		return &EmptyStmt{stmtBase{Pos: pos}}, nil
	case p.atType():
		return p.parseDeclStmt()
	case p.atKeyword("if"):
		return p.parseIf()
	case p.atKeyword("while"):
		return p.parseWhile()
	case p.atKeyword("do"):
		return nil, p.errf("do/while is not supported in MiniC")
	case p.atKeyword("for"):
		return p.parseFor()
	case p.atKeyword("return"):
		p.next()
		var x Expr
		if !p.atPunct(";") {
			var err error
			x, err = p.parseExpr()
			if err != nil {
				return nil, err
			}
		}
		if err := p.expectPunct(";"); err != nil {
			return nil, err
		}
		return &Return{stmtBase: stmtBase{Pos: pos}, X: x}, nil
	case p.atKeyword("break"):
		p.next()
		if err := p.expectPunct(";"); err != nil {
			return nil, err
		}
		return &Break{stmtBase{Pos: pos}}, nil
	case p.atKeyword("continue"):
		p.next()
		if err := p.expectPunct(";"); err != nil {
			return nil, err
		}
		return &Continue{stmtBase{Pos: pos}}, nil
	default:
		x, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(";"); err != nil {
			return nil, err
		}
		return &ExprStmt{stmtBase: stmtBase{Pos: pos}, X: x}, nil
	}
}

func (p *Parser) parseDeclStmt() (*DeclStmt, error) {
	pos := p.cur().Pos
	base, err := p.parseTypeBaseOnly()
	if err != nil {
		return nil, err
	}
	d := &DeclStmt{stmtBase: stmtBase{Pos: pos}}
	for {
		t := base
		for p.eatPunct("*") {
			t = PointerTo(t)
		}
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		for p.eatPunct("[") {
			n := -1
			if p.at(TokIntLit) {
				n = int(p.next().IntVal)
			}
			if err := p.expectPunct("]"); err != nil {
				return nil, err
			}
			t = ArrayOf(t, n)
		}
		var init Expr
		if p.eatPunct("=") {
			init, err = p.parseAssignExpr()
			if err != nil {
				return nil, err
			}
		}
		d.Decls = append(d.Decls, &Declarator{Name: name, Type: t, Init: init})
		if !p.eatPunct(",") {
			break
		}
	}
	if err := p.expectPunct(";"); err != nil {
		return nil, err
	}
	return d, nil
}

// parseTypeBaseOnly parses the base type without consuming '*'s, which bind
// per-declarator in C declaration lists (`char *a, b`).
func (p *Parser) parseTypeBaseOnly() (*Type, error) {
	if !p.atType() {
		return nil, p.errf("expected type, found %s", p.cur())
	}
	var base *Type
	sawUnsigned := false
	for p.atType() {
		switch p.next().Text {
		case "const", "static", "signed":
		case "unsigned":
			sawUnsigned = true
		case "void":
			base = VoidType
		case "char":
			base = CharType
		case "short", "int":
			base = IntType
		case "long", "size_t":
			base = LongType
		case "float":
			base = FloatType
		case "double":
			base = DoubleType
		}
	}
	if base == nil {
		if sawUnsigned {
			base = IntType
		} else {
			return nil, p.errf("declaration lacks a base type")
		}
	}
	return base, nil
}

func (p *Parser) parseIf() (Stmt, error) {
	pos := p.next().Pos // if
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	then, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	var els Stmt
	if p.atKeyword("else") {
		p.next()
		els, err = p.parseStmt()
		if err != nil {
			return nil, err
		}
	}
	return &If{stmtBase: stmtBase{Pos: pos}, Cond: cond, Then: then, Else: els}, nil
}

func (p *Parser) parseWhile() (Stmt, error) {
	pos := p.next().Pos // while
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	body, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	return &While{stmtBase: stmtBase{Pos: pos}, Cond: cond, Body: body}, nil
}

func (p *Parser) parseFor() (Stmt, error) {
	pos := p.next().Pos // for
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	f := &For{stmtBase: stmtBase{Pos: pos}}
	if !p.atPunct(";") {
		if p.atType() {
			d, err := p.parseDeclStmt()
			if err != nil {
				return nil, err
			}
			f.Init = d
		} else {
			x, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct(";"); err != nil {
				return nil, err
			}
			f.Init = &ExprStmt{stmtBase: stmtBase{Pos: pos}, X: x}
		}
	} else {
		p.next()
	}
	if !p.atPunct(";") {
		c, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		f.Cond = c
	}
	if err := p.expectPunct(";"); err != nil {
		return nil, err
	}
	if !p.atPunct(")") {
		x, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		f.Post = x
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	body, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	f.Body = body
	return f, nil
}

// ---- Expressions ----

func (p *Parser) parseExpr() (Expr, error) {
	x, err := p.parseAssignExpr()
	if err != nil {
		return nil, err
	}
	// The comma operator appears only in for-posts in our dialect; reject
	// elsewhere by construction (callers consume ',' explicitly).
	return x, nil
}

func (p *Parser) parseAssignExpr() (Expr, error) {
	lhs, err := p.parseCondExpr()
	if err != nil {
		return nil, err
	}
	t := p.cur()
	if t.Kind == TokPunct {
		switch t.Text {
		case "=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>=":
			p.next()
			rhs, err := p.parseAssignExpr()
			if err != nil {
				return nil, err
			}
			return &Assign{exprBase: exprBase{Pos: t.Pos}, Op: t.Text, L: lhs, R: rhs}, nil
		}
	}
	return lhs, nil
}

func (p *Parser) parseCondExpr() (Expr, error) {
	c, err := p.parseBinaryExpr(0)
	if err != nil {
		return nil, err
	}
	if p.atPunct("?") {
		pos := p.next().Pos
		tv, err := p.parseAssignExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(":"); err != nil {
			return nil, err
		}
		fv, err := p.parseCondExpr()
		if err != nil {
			return nil, err
		}
		return &Cond{exprBase: exprBase{Pos: pos}, C: c, T: tv, F: fv}, nil
	}
	return c, nil
}

var binPrec = map[string]int{
	"||": 1,
	"&&": 2,
	"|":  3,
	"^":  4,
	"&":  5,
	"==": 6, "!=": 6,
	"<": 7, ">": 7, "<=": 7, ">=": 7,
	"<<": 8, ">>": 8,
	"+": 9, "-": 9,
	"*": 10, "/": 10, "%": 10,
}

func (p *Parser) parseBinaryExpr(minPrec int) (Expr, error) {
	lhs, err := p.parseUnaryExpr()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		if t.Kind != TokPunct {
			return lhs, nil
		}
		prec, ok := binPrec[t.Text]
		if !ok || prec < minPrec {
			return lhs, nil
		}
		p.next()
		rhs, err := p.parseBinaryExpr(prec + 1)
		if err != nil {
			return nil, err
		}
		lhs = &Binary{exprBase: exprBase{Pos: t.Pos}, Op: t.Text, L: lhs, R: rhs}
	}
}

func (p *Parser) parseUnaryExpr() (Expr, error) {
	t := p.cur()
	if t.Kind == TokPunct {
		switch t.Text {
		case "-", "!", "~", "&", "*", "+":
			p.next()
			x, err := p.parseUnaryExpr()
			if err != nil {
				return nil, err
			}
			if t.Text == "+" {
				return x, nil
			}
			return &Unary{exprBase: exprBase{Pos: t.Pos}, Op: t.Text, X: x}, nil
		case "++", "--":
			p.next()
			x, err := p.parseUnaryExpr()
			if err != nil {
				return nil, err
			}
			return &Unary{exprBase: exprBase{Pos: t.Pos}, Op: t.Text, X: x}, nil
		case "(":
			// Cast or parenthesized expression.
			if p.toks[p.pos+1].Kind == TokKeyword && IsTypeKeyword(p.toks[p.pos+1].Text) {
				p.next() // (
				to, err := p.parseType()
				if err != nil {
					return nil, err
				}
				if err := p.expectPunct(")"); err != nil {
					return nil, err
				}
				x, err := p.parseUnaryExpr()
				if err != nil {
					return nil, err
				}
				return &Cast{exprBase: exprBase{Pos: t.Pos}, To: to, X: x}, nil
			}
		}
	}
	if t.Kind == TokKeyword && t.Text == "sizeof" {
		p.next()
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		if p.atType() {
			of, err := p.parseType()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			return &SizeofType{exprBase: exprBase{Pos: t.Pos}, Of: of}, nil
		}
		// sizeof(expr): evaluate the expression's type at check time. For
		// simplicity we only accept an identifier here.
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return &Call{exprBase: exprBase{Pos: t.Pos}, Name: "__sizeof_var", Args: []Expr{&Ident{exprBase: exprBase{Pos: t.Pos}, Name: name}}}, nil
	}
	return p.parsePostfixExpr()
}

func (p *Parser) parsePostfixExpr() (Expr, error) {
	x, err := p.parsePrimaryExpr()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		if t.Kind != TokPunct {
			return x, nil
		}
		switch t.Text {
		case "[":
			p.next()
			idx, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct("]"); err != nil {
				return nil, err
			}
			x = &Index{exprBase: exprBase{Pos: t.Pos}, X: x, Idx: idx}
		case "++", "--":
			p.next()
			x = &Postfix{exprBase: exprBase{Pos: t.Pos}, Op: t.Text, X: x}
		case "(":
			id, ok := x.(*Ident)
			if !ok {
				return nil, p.errf("call of non-identifier expression")
			}
			p.next()
			var args []Expr
			if !p.atPunct(")") {
				for {
					a, err := p.parseAssignExpr()
					if err != nil {
						return nil, err
					}
					args = append(args, a)
					if !p.eatPunct(",") {
						break
					}
				}
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			x = &Call{exprBase: exprBase{Pos: t.Pos}, Name: id.Name, Args: args}
		default:
			return x, nil
		}
	}
}

func (p *Parser) parsePrimaryExpr() (Expr, error) {
	t := p.cur()
	switch t.Kind {
	case TokIntLit:
		p.next()
		return &IntLit{exprBase: exprBase{Pos: t.Pos}, Value: t.IntVal}, nil
	case TokFloatLit:
		p.next()
		return &FloatLit{exprBase: exprBase{Pos: t.Pos}, Value: t.FloatVal}, nil
	case TokCharLit:
		p.next()
		return &CharLit{exprBase: exprBase{Pos: t.Pos}, Value: byte(t.IntVal)}, nil
	case TokStrLit:
		p.next()
		return &StrLit{exprBase: exprBase{Pos: t.Pos}, Value: t.Text}, nil
	case TokIdent:
		p.next()
		return &Ident{exprBase: exprBase{Pos: t.Pos}, Name: t.Text}, nil
	case TokKeyword:
		if t.Text == "NULL" {
			p.next()
			lit := &IntLit{exprBase: exprBase{Pos: t.Pos}, Value: 0}
			return &Cast{exprBase: exprBase{Pos: t.Pos}, To: PointerTo(VoidType), X: lit}, nil
		}
	case TokPunct:
		if t.Text == "(" {
			p.next()
			x, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			return x, nil
		}
	}
	return nil, p.errf("unexpected token %s in expression", t)
}
