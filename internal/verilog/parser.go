package verilog

import (
	"fmt"
	"strconv"
	"strings"

	"correctbench/internal/logic"
)

// ParseError is a syntax error with source position.
type ParseError struct {
	Pos Pos
	Msg string
}

func (e *ParseError) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// Parse parses a complete source file.
func Parse(src string) (*SourceFile, error) {
	p := &parser{toks: Tokens(src)}
	if last := p.toks[len(p.toks)-1]; last.Kind == TokError {
		return nil, &ParseError{Pos: last.Pos, Msg: last.Text}
	}
	file := &SourceFile{}
	for !p.at(TokEOF) {
		m, err := p.parseModule()
		if err != nil {
			return nil, err
		}
		file.Modules = append(file.Modules, m)
	}
	if len(file.Modules) == 0 {
		return nil, &ParseError{Pos: Pos{1, 1}, Msg: "no module found"}
	}
	return file, nil
}

// MustParse parses src and panics on error; for tests and built-in
// golden sources.
func MustParse(src string) *SourceFile {
	f, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return f
}

type parser struct {
	toks []Token
	pos  int
}

func (p *parser) cur() Token          { return p.toks[p.pos] }
func (p *parser) at(k TokenKind) bool { return p.cur().Kind == k }

func (p *parser) is(text string) bool { return p.cur().Is(text) }

func (p *parser) next() Token {
	t := p.cur()
	if t.Kind != TokEOF {
		p.pos++
	}
	return t
}

func (p *parser) accept(text string) bool {
	if p.is(text) {
		p.next()
		return true
	}
	return false
}

func (p *parser) expect(text string) (Token, error) {
	if p.is(text) {
		return p.next(), nil
	}
	return Token{}, p.errf("expected %q, found %q", text, p.cur().Text)
}

func (p *parser) errf(format string, args ...interface{}) error {
	return &ParseError{Pos: p.cur().Pos, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) ident() (string, error) {
	if p.at(TokIdent) {
		return p.next().Text, nil
	}
	return "", p.errf("expected identifier, found %q", p.cur().Text)
}

// ---- module ----

func (p *parser) parseModule() (*Module, error) {
	start := p.cur().Pos
	if _, err := p.expect("module"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	m := &Module{Name: name, Pos: start}

	if p.accept("#") {
		if _, err := p.expect("("); err != nil {
			return nil, err
		}
		for {
			d, err := p.parseParamDecl(DeclParameter)
			if err != nil {
				return nil, err
			}
			m.Items = append(m.Items, d)
			if !p.accept(",") {
				break
			}
		}
		if _, err := p.expect(")"); err != nil {
			return nil, err
		}
	}

	if p.accept("(") {
		if !p.is(")") {
			if err := p.parsePortList(m); err != nil {
				return nil, err
			}
		}
		if _, err := p.expect(")"); err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(";"); err != nil {
		return nil, err
	}

	for !p.is("endmodule") {
		if p.at(TokEOF) {
			return nil, p.errf("unexpected EOF inside module %s", name)
		}
		items, err := p.parseItem()
		if err != nil {
			return nil, err
		}
		m.Items = append(m.Items, items...)
	}
	p.next() // endmodule
	return m, nil
}

// parsePortList handles both ANSI headers (input [3:0] a, output reg b)
// and classic headers (a, b, c).
func (p *parser) parsePortList(m *Module) error {
	// Peek: ANSI starts with a direction keyword.
	for {
		switch {
		case p.is("input") || p.is("output") || p.is("inout"):
			d, err := p.parsePortDecl()
			if err != nil {
				return err
			}
			// In an ANSI header, subsequent bare identifiers continue
			// the previous declaration until the next direction keyword.
			m.Items = append(m.Items, d)
			m.PortOrder = append(m.PortOrder, d.Names...)
		case p.at(TokIdent):
			n, _ := p.ident()
			m.PortOrder = append(m.PortOrder, n)
		default:
			return p.errf("expected port declaration, found %q", p.cur().Text)
		}
		if !p.accept(",") {
			return nil
		}
	}
}

func (p *parser) parsePortDecl() (*Decl, error) {
	pos := p.cur().Pos
	var kind DeclKind
	switch {
	case p.accept("input"):
		kind = DeclInput
	case p.accept("output"):
		kind = DeclOutput
	case p.accept("inout"):
		kind = DeclInout
	default:
		return nil, p.errf("expected port direction")
	}
	d := &Decl{Kind: kind, Pos: pos}
	if p.accept("reg") {
		d.IsReg = true
	} else {
		p.accept("wire")
	}
	if p.accept("signed") {
		d.Signed = true
	}
	rng, err := p.parseOptRange()
	if err != nil {
		return nil, err
	}
	d.Range = rng
	for {
		n, err := p.ident()
		if err != nil {
			return nil, err
		}
		d.Names = append(d.Names, n)
		// A following comma may start a new declaration (direction
		// keyword) — leave it for the caller — or continue this one.
		if p.is(",") && p.pos+1 < len(p.toks) && p.toks[p.pos+1].Kind == TokIdent {
			p.next()
			continue
		}
		return d, nil
	}
}

func (p *parser) parseParamDecl(kind DeclKind) (*Decl, error) {
	pos := p.cur().Pos
	switch kind {
	case DeclParameter:
		if !p.accept("parameter") {
			return nil, p.errf("expected parameter")
		}
	case DeclLocalparam:
		if !p.accept("localparam") {
			return nil, p.errf("expected localparam")
		}
	}
	rng, err := p.parseOptRange()
	if err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect("="); err != nil {
		return nil, err
	}
	val, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	return &Decl{Kind: kind, Range: rng, Names: []string{name}, Init: val, Pos: pos}, nil
}

func (p *parser) parseOptRange() (*Range, error) {
	if !p.accept("[") {
		return nil, nil
	}
	msb, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(":"); err != nil {
		return nil, err
	}
	lsb, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect("]"); err != nil {
		return nil, err
	}
	return &Range{MSB: msb, LSB: lsb}, nil
}

// ---- items ----

func (p *parser) parseItem() ([]Item, error) {
	switch {
	case p.is("input") || p.is("output") || p.is("inout"):
		d, err := p.parsePortDecl()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(";"); err != nil {
			return nil, err
		}
		return []Item{d}, nil

	case p.is("wire") || p.is("reg") || p.is("integer"):
		return p.parseNetDecl()

	case p.is("parameter") || p.is("localparam"):
		kind := DeclParameter
		if p.is("localparam") {
			kind = DeclLocalparam
		}
		d, err := p.parseParamDecl(kind)
		if err != nil {
			return nil, err
		}
		items := []Item{d}
		for p.accept(",") {
			// parameter N = 1, M = 2;
			rng := d.Range
			name, err := p.ident()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect("="); err != nil {
				return nil, err
			}
			val, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			items = append(items, &Decl{Kind: kind, Range: rng, Names: []string{name}, Init: val, Pos: d.Pos})
		}
		if _, err := p.expect(";"); err != nil {
			return nil, err
		}
		return items, nil

	case p.is("assign"):
		pos := p.next().Pos
		var items []Item
		for {
			lhs, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect("="); err != nil {
				return nil, err
			}
			rhs, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			items = append(items, &ContAssign{LHS: lhs, RHS: rhs, Pos: pos})
			if !p.accept(",") {
				break
			}
		}
		if _, err := p.expect(";"); err != nil {
			return nil, err
		}
		return items, nil

	case p.is("always"):
		a, err := p.parseAlways()
		if err != nil {
			return nil, err
		}
		return []Item{a}, nil

	case p.is("initial"):
		pos := p.next().Pos
		body, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		return []Item{&Initial{Body: body, Pos: pos}}, nil

	case p.at(TokIdent):
		inst, err := p.parseInstance()
		if err != nil {
			return nil, err
		}
		return []Item{inst}, nil
	}
	return nil, p.errf("unexpected token %q in module body", p.cur().Text)
}

func (p *parser) parseNetDecl() ([]Item, error) {
	pos := p.cur().Pos
	var kind DeclKind
	switch {
	case p.accept("wire"):
		kind = DeclWire
	case p.accept("reg"):
		kind = DeclReg
	case p.accept("integer"):
		kind = DeclInteger
	}
	signed := p.accept("signed")
	rng, err := p.parseOptRange()
	if err != nil {
		return nil, err
	}
	d := &Decl{Kind: kind, Signed: signed, Range: rng, Pos: pos}
	var items []Item
	for {
		n, err := p.ident()
		if err != nil {
			return nil, err
		}
		d.Names = append(d.Names, n)
		if p.accept("=") {
			// wire w = expr; -> declaration plus continuous assign.
			rhs, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			items = append(items, &ContAssign{LHS: &Ident{Name: n}, RHS: rhs, Pos: pos})
		}
		if !p.accept(",") {
			break
		}
	}
	if _, err := p.expect(";"); err != nil {
		return nil, err
	}
	return append([]Item{d}, items...), nil
}

func (p *parser) parseAlways() (*Always, error) {
	pos := p.next().Pos // always
	a := &Always{Pos: pos}
	if !p.is("@") {
		// "always #5 clk = ~clk;" style: no event control; the body
		// (usually a delay) drives scheduling.
		body, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		a.Body = body
		return a, nil
	}
	p.next()
	if p.accept("*") {
		a.Star = true
	} else {
		if _, err := p.expect("("); err != nil {
			return nil, err
		}
		if p.accept("*") {
			a.Star = true
			if _, err := p.expect(")"); err != nil {
				return nil, err
			}
		} else {
			for {
				item := SensItem{}
				if p.accept("posedge") {
					item.Edge = EdgePos
				} else if p.accept("negedge") {
					item.Edge = EdgeNeg
				}
				sig, err := p.ident()
				if err != nil {
					return nil, err
				}
				item.Sig = sig
				a.Sens = append(a.Sens, item)
				if p.accept("or") || p.accept(",") {
					continue
				}
				break
			}
			if _, err := p.expect(")"); err != nil {
				return nil, err
			}
		}
	}
	body, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	a.Body = body
	return a, nil
}

func (p *parser) parseInstance() (*Instance, error) {
	pos := p.cur().Pos
	mod, err := p.ident()
	if err != nil {
		return nil, err
	}
	inst := &Instance{Module: mod, Pos: pos}
	if p.accept("#") {
		if _, err := p.expect("("); err != nil {
			return nil, err
		}
		conns, err := p.parseConnections()
		if err != nil {
			return nil, err
		}
		inst.Params = conns
		if _, err := p.expect(")"); err != nil {
			return nil, err
		}
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	inst.Name = name
	if _, err := p.expect("("); err != nil {
		return nil, err
	}
	if !p.is(")") {
		conns, err := p.parseConnections()
		if err != nil {
			return nil, err
		}
		inst.Conns = conns
	}
	if _, err := p.expect(")"); err != nil {
		return nil, err
	}
	if _, err := p.expect(";"); err != nil {
		return nil, err
	}
	return inst, nil
}

func (p *parser) parseConnections() ([]Connection, error) {
	var out []Connection
	for {
		var c Connection
		if p.accept(".") {
			n, err := p.ident()
			if err != nil {
				return nil, err
			}
			c.Name = n
			if _, err := p.expect("("); err != nil {
				return nil, err
			}
			if !p.is(")") {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				c.Expr = e
			}
			if _, err := p.expect(")"); err != nil {
				return nil, err
			}
		} else {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			c.Expr = e
		}
		out = append(out, c)
		if !p.accept(",") {
			return out, nil
		}
	}
}

// ---- statements ----

func (p *parser) parseStmt() (Stmt, error) {
	switch {
	case p.accept(";"):
		return &Null{}, nil

	case p.is("begin"):
		p.next()
		b := &Block{}
		if p.accept(":") {
			n, err := p.ident()
			if err != nil {
				return nil, err
			}
			b.Name = n
		}
		for !p.is("end") {
			if p.at(TokEOF) {
				return nil, p.errf("unexpected EOF inside begin/end")
			}
			s, err := p.parseStmt()
			if err != nil {
				return nil, err
			}
			b.Stmts = append(b.Stmts, s)
		}
		p.next()
		return b, nil

	case p.is("if"):
		p.next()
		if _, err := p.expect("("); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(")"); err != nil {
			return nil, err
		}
		then, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		st := &If{Cond: cond, Then: then}
		if p.accept("else") {
			els, err := p.parseStmt()
			if err != nil {
				return nil, err
			}
			st.Else = els
		}
		return st, nil

	case p.is("case") || p.is("casez") || p.is("casex"):
		kind := CaseExact
		if p.is("casez") {
			kind = CaseZ
		} else if p.is("casex") {
			kind = CaseX
		}
		p.next()
		if _, err := p.expect("("); err != nil {
			return nil, err
		}
		sel, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(")"); err != nil {
			return nil, err
		}
		c := &Case{Kind: kind, Expr: sel}
		for !p.is("endcase") {
			if p.at(TokEOF) {
				return nil, p.errf("unexpected EOF inside case")
			}
			var item CaseItem
			if p.accept("default") {
				p.accept(":")
			} else {
				for {
					e, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					item.Exprs = append(item.Exprs, e)
					if !p.accept(",") {
						break
					}
				}
				if _, err := p.expect(":"); err != nil {
					return nil, err
				}
			}
			body, err := p.parseStmt()
			if err != nil {
				return nil, err
			}
			item.Body = body
			c.Items = append(c.Items, item)
		}
		p.next()
		return c, nil

	case p.is("for"):
		p.next()
		if _, err := p.expect("("); err != nil {
			return nil, err
		}
		init, err := p.parseSimpleAssign()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(";"); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(";"); err != nil {
			return nil, err
		}
		step, err := p.parseSimpleAssign()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(")"); err != nil {
			return nil, err
		}
		body, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		return &For{Init: init, Cond: cond, Step: step, Body: body}, nil

	case p.is("repeat"):
		p.next()
		if _, err := p.expect("("); err != nil {
			return nil, err
		}
		count, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(")"); err != nil {
			return nil, err
		}
		body, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		return &Repeat{Count: count, Body: body}, nil

	case p.is("#"):
		p.next()
		amt, err := p.parsePrimary()
		if err != nil {
			return nil, err
		}
		if p.accept(";") {
			return &Delay{Amount: amt, Body: &Null{}}, nil
		}
		body, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		return &Delay{Amount: amt, Body: body}, nil

	case p.at(TokSysIdent):
		t := p.next()
		sc := &SysCall{Name: t.Text, Pos: t.Pos}
		if p.accept("(") {
			if !p.is(")") {
				for {
					e, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					sc.Args = append(sc.Args, e)
					if !p.accept(",") {
						break
					}
				}
			}
			if _, err := p.expect(")"); err != nil {
				return nil, err
			}
		}
		if _, err := p.expect(";"); err != nil {
			return nil, err
		}
		return sc, nil
	}

	// Assignment statement.
	a, err := p.parseSimpleAssign()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(";"); err != nil {
		return nil, err
	}
	return a, nil
}

// parseSimpleAssign parses "lhs = rhs" or "lhs <= rhs" without the
// trailing semicolon (shared by statements and for-headers). The LHS
// is parsed as an lvalue, not a general expression, so that "<=" binds
// as the non-blocking assignment operator rather than less-or-equal.
func (p *parser) parseSimpleAssign() (*Assign, error) {
	pos := p.cur().Pos
	lhs, err := p.parseLValue()
	if err != nil {
		return nil, err
	}
	a := &Assign{LHS: lhs, Pos: pos}
	switch {
	case p.accept("="):
	case p.accept("<="):
		a.NonBlocking = true
	default:
		return nil, p.errf("expected '=' or '<=', found %q", p.cur().Text)
	}
	rhs, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	a.RHS = rhs
	return a, nil
}

// parseLValue parses an assignment target: an identifier with optional
// bit/part selects, or a concatenation of lvalues.
func (p *parser) parseLValue() (Expr, error) {
	if p.accept("{") {
		c := &Concat{}
		for {
			e, err := p.parseLValue()
			if err != nil {
				return nil, err
			}
			c.Parts = append(c.Parts, e)
			if !p.accept(",") {
				break
			}
		}
		if _, err := p.expect("}"); err != nil {
			return nil, err
		}
		return c, nil
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	var e Expr = &Ident{Name: name}
	for p.is("[") {
		p.next()
		first, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if p.accept(":") {
			lsb, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect("]"); err != nil {
				return nil, err
			}
			e = &PartSelect{X: e, MSB: first, LSB: lsb}
		} else {
			if _, err := p.expect("]"); err != nil {
				return nil, err
			}
			e = &Index{X: e, Index: first}
		}
	}
	return e, nil
}

// ---- expressions ----

// Precedence levels, loosest first. Every operator here and in
// unaryOps (but unary +, which parseUnary drops) is in the operator
// table the evaluators resolve through (logic.BinaryOp, logic.UnaryOp).
var binaryLevels = [][]string{
	{"||"},
	{"&&"},
	{"|"},
	{"^", "~^", "^~"},
	{"&"},
	{"==", "!=", "===", "!=="},
	{"<", "<=", ">", ">="},
	{"<<", ">>", ">>>", "<<<"},
	{"+", "-"},
	{"*", "/", "%"},
	{"**"},
}

func (p *parser) parseExpr() (Expr, error) { return p.parseTernary() }

func (p *parser) parseTernary() (Expr, error) {
	cond, err := p.parseBinary(0)
	if err != nil {
		return nil, err
	}
	if !p.accept("?") {
		return cond, nil
	}
	then, err := p.parseTernary()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(":"); err != nil {
		return nil, err
	}
	els, err := p.parseTernary()
	if err != nil {
		return nil, err
	}
	return &Ternary{Cond: cond, Then: then, Else: els}, nil
}

func (p *parser) parseBinary(level int) (Expr, error) {
	if level >= len(binaryLevels) {
		return p.parseUnary()
	}
	lhs, err := p.parseBinary(level + 1)
	if err != nil {
		return nil, err
	}
	for {
		matched := false
		for _, op := range binaryLevels[level] {
			if p.is(op) {
				pos := p.next().Pos
				rhs, err := p.parseBinary(level + 1)
				if err != nil {
					return nil, err
				}
				lhs = &Binary{Op: op, X: lhs, Y: rhs, Pos: pos}
				matched = true
				break
			}
		}
		if !matched {
			return lhs, nil
		}
	}
}

var unaryOps = map[string]bool{
	"~": true, "!": true, "-": true, "+": true,
	"&": true, "|": true, "^": true, "~&": true, "~|": true, "~^": true, "^~": true,
}

func (p *parser) parseUnary() (Expr, error) {
	if p.cur().Kind == TokOp && unaryOps[p.cur().Text] {
		op := p.next().Text
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		if op == "+" {
			return x, nil
		}
		return &Unary{Op: op, X: x}, nil
	}
	return p.parsePostfix()
}

func (p *parser) parsePostfix() (Expr, error) {
	e, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for p.is("[") {
		p.next()
		first, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if p.accept(":") {
			lsb, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect("]"); err != nil {
				return nil, err
			}
			e = &PartSelect{X: e, MSB: first, LSB: lsb}
		} else {
			if _, err := p.expect("]"); err != nil {
				return nil, err
			}
			e = &Index{X: e, Index: first}
		}
	}
	return e, nil
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.cur()
	switch {
	case t.Kind == TokNumber:
		p.next()
		return parseNumber(t)

	case t.Kind == TokString:
		p.next()
		return &StringLit{Value: t.Text}, nil

	case t.Kind == TokIdent:
		p.next()
		return &Ident{Name: t.Text, Pos: t.Pos}, nil

	case t.Is("("):
		p.next()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(")"); err != nil {
			return nil, err
		}
		return e, nil

	case t.Is("{"):
		p.next()
		first, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if p.is("{") {
			// Replication {N{value}}.
			p.next()
			val, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect("}"); err != nil {
				return nil, err
			}
			if _, err := p.expect("}"); err != nil {
				return nil, err
			}
			return &Repl{Count: first, Value: val}, nil
		}
		c := &Concat{Parts: []Expr{first}}
		for p.accept(",") {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			c.Parts = append(c.Parts, e)
		}
		if _, err := p.expect("}"); err != nil {
			return nil, err
		}
		return c, nil
	}
	return nil, p.errf("unexpected token %q in expression", t.Text)
}

// parseNumber converts a TokNumber to a Number node.
func parseNumber(t Token) (*Number, error) {
	text := t.Text
	fail := func(msg string) (*Number, error) {
		return nil, &ParseError{Pos: t.Pos, Msg: fmt.Sprintf("%s: %q", msg, text)}
	}
	q := strings.IndexByte(text, '\'')
	if q < 0 {
		clean := strings.ReplaceAll(text, "_", "")
		v, err := strconv.ParseUint(clean, 10, 64)
		if err != nil {
			return fail("invalid decimal literal")
		}
		return &Number{Width: 0, Val: logic.FromUint64(32, v), Text: text}, nil
	}
	width := 32
	if q > 0 {
		sz, err := strconv.Atoi(strings.ReplaceAll(text[:q], "_", ""))
		if err != nil || sz < 1 || sz > MaxVectorWidth {
			return fail("invalid literal size")
		}
		width = sz
	}
	rest := text[q+1:]
	if rest != "" && (rest[0] == 's' || rest[0] == 'S') {
		rest = rest[1:]
	}
	if rest == "" {
		return fail("truncated based literal")
	}
	base := lower(rest[0])
	digits := strings.ReplaceAll(rest[1:], "_", "")
	if digits == "" {
		return fail("based literal with no digits")
	}
	var bitsPerDigit int
	switch base {
	case 'b':
		bitsPerDigit = 1
	case 'o':
		bitsPerDigit = 3
	case 'h':
		bitsPerDigit = 4
	case 'd':
		clean := strings.Map(func(r rune) rune {
			if r == 'x' || r == 'X' || r == 'z' || r == 'Z' || r == '?' {
				return -1
			}
			return r
		}, digits)
		if clean != digits {
			// x/z digits in decimal base: whole value unknown.
			return &Number{Width: width, Val: logic.AllX(width), Text: text}, nil
		}
		v, err := strconv.ParseUint(clean, 10, 64)
		if err != nil {
			return fail("invalid decimal digits")
		}
		return &Number{Width: width, Val: logic.FromUint64(width, v), Text: text}, nil
	default:
		return fail("invalid base")
	}

	val := logic.New(width)
	pos := 0
	for i := len(digits) - 1; i >= 0; i-- {
		c := lower(digits[i])
		var bits []logic.Bit
		switch {
		case c == 'x':
			bits = repeatBit(logic.X, bitsPerDigit)
		case c == 'z' || c == '?':
			bits = repeatBit(logic.Z, bitsPerDigit)
		default:
			var dv uint64
			switch {
			case c >= '0' && c <= '9':
				dv = uint64(c - '0')
			case c >= 'a' && c <= 'f':
				dv = uint64(c-'a') + 10
			default:
				return fail("invalid digit")
			}
			if dv >= 1<<uint(bitsPerDigit) {
				return fail("digit out of range for base")
			}
			bits = make([]logic.Bit, bitsPerDigit)
			for b := 0; b < bitsPerDigit; b++ {
				if dv>>uint(b)&1 == 1 {
					bits[b] = logic.L1
				}
			}
		}
		for b, bit := range bits {
			val.SetBit(pos+b, bit)
		}
		pos += bitsPerDigit
	}
	return &Number{Width: width, Val: val, Text: text}, nil
}

func repeatBit(b logic.Bit, n int) []logic.Bit {
	out := make([]logic.Bit, n)
	for i := range out {
		out[i] = b
	}
	return out
}
