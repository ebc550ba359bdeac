package verilog

import (
	"fmt"
	"strings"
)

// Print renders a source file back to Verilog text in a canonical
// format. Parse(Print(f)) is structurally identical to f (round-trip
// stability is property-tested).
func Print(f *SourceFile) string {
	var sb strings.Builder
	for i, m := range f.Modules {
		if i > 0 {
			sb.WriteString("\n")
		}
		printModule(&sb, m)
	}
	return sb.String()
}

// PrintModule renders a single module.
func PrintModule(m *Module) string {
	var sb strings.Builder
	printModule(&sb, m)
	return sb.String()
}

func printModule(sb *strings.Builder, m *Module) {
	// Split items: header parameters stay inline when present.
	var ports []*Decl
	portNames := map[string]bool{}
	for _, it := range m.Items {
		if d, ok := it.(*Decl); ok && d.Kind.IsPort() {
			ports = append(ports, d)
			for _, n := range d.Names {
				portNames[n] = true
			}
		}
	}
	fmt.Fprintf(sb, "module %s", m.Name)
	if len(ports) > 0 {
		sb.WriteString("(\n")
		for i, d := range ports {
			sb.WriteString("    ")
			sb.WriteString(declHead(d))
			sb.WriteString(" ")
			sb.WriteString(strings.Join(d.Names, ", "))
			if i < len(ports)-1 {
				sb.WriteString(",")
			}
			sb.WriteString("\n")
		}
		sb.WriteString(")")
	} else if len(m.PortOrder) > 0 {
		fmt.Fprintf(sb, "(%s)", strings.Join(m.PortOrder, ", "))
	}
	sb.WriteString(";\n")
	for _, it := range m.Items {
		if d, ok := it.(*Decl); ok && d.Kind.IsPort() {
			continue // already in header
		} else if ok && d.Kind == DeclParameter {
			fmt.Fprintf(sb, "    parameter %s%s = %s;\n", rangeStr(d.Range), d.Names[0], ExprString(d.Init))
			continue
		}
		printItem(sb, it, "    ")
	}
	sb.WriteString("endmodule\n")
}

func declHead(d *Decl) string {
	s := d.Kind.String()
	if d.IsReg {
		s += " reg"
	}
	if d.Signed {
		s += " signed"
	}
	if d.Range != nil {
		s += " " + strings.TrimSpace(rangeStr(d.Range))
	}
	return s
}

func rangeStr(r *Range) string {
	if r == nil {
		return ""
	}
	return fmt.Sprintf("[%s:%s] ", ExprString(r.MSB), ExprString(r.LSB))
}

func printItem(sb *strings.Builder, it Item, indent string) {
	switch x := it.(type) {
	case *Decl:
		switch x.Kind {
		case DeclLocalparam:
			fmt.Fprintf(sb, "%slocalparam %s%s = %s;\n", indent, rangeStr(x.Range), x.Names[0], ExprString(x.Init))
		default:
			fmt.Fprintf(sb, "%s%s %s;\n", indent, declHead(x), strings.Join(x.Names, ", "))
		}
	case *ContAssign:
		fmt.Fprintf(sb, "%sassign %s = %s;\n", indent, ExprString(x.LHS), ExprString(x.RHS))
	case *Always:
		if !x.Star && len(x.Sens) == 0 {
			fmt.Fprintf(sb, "%salways", indent)
		} else {
			fmt.Fprintf(sb, "%salways @(%s)", indent, sensString(x))
		}
		printBody(sb, x.Body, indent)
	case *Initial:
		fmt.Fprintf(sb, "%sinitial", indent)
		printBody(sb, x.Body, indent)
	case *Instance:
		fmt.Fprintf(sb, "%s%s", indent, x.Module)
		if len(x.Params) > 0 {
			fmt.Fprintf(sb, " #(%s)", connString(x.Params))
		}
		fmt.Fprintf(sb, " %s(%s);\n", x.Name, connString(x.Conns))
	}
}

func connString(conns []Connection) string {
	parts := make([]string, len(conns))
	for i, c := range conns {
		if c.Name != "" {
			parts[i] = fmt.Sprintf(".%s(%s)", c.Name, ExprString(c.Expr))
		} else {
			parts[i] = ExprString(c.Expr)
		}
	}
	return strings.Join(parts, ", ")
}

func sensString(a *Always) string {
	if a.Star {
		return "*"
	}
	parts := make([]string, len(a.Sens))
	for i, s := range a.Sens {
		if s.Edge == EdgeNone {
			parts[i] = s.Sig
		} else {
			parts[i] = s.Edge.String() + " " + s.Sig
		}
	}
	return strings.Join(parts, " or ")
}

// StmtString renders one statement exactly as the printer emits it
// inside a process body. Structurally identical statements render
// identically, which is what the batch simulator's patch detection
// compares to find the process bodies a mutant actually changed.
func StmtString(s Stmt) string {
	var sb strings.Builder
	printStmt(&sb, s, "")
	return sb.String()
}

// printBody prints a statement that follows a header (always/initial),
// inline for blocks, indented on the next line otherwise.
func printBody(sb *strings.Builder, s Stmt, indent string) {
	if _, ok := s.(*Block); ok {
		sb.WriteString(" ")
		printStmt(sb, s, indent)
	} else {
		sb.WriteString("\n")
		sb.WriteString(indent + "    ")
		printStmt(sb, s, indent+"    ")
	}
}

func printStmt(sb *strings.Builder, s Stmt, indent string) {
	switch x := s.(type) {
	case *Null:
		sb.WriteString(";\n")
	case *Block:
		sb.WriteString("begin")
		if x.Name != "" {
			sb.WriteString(" : " + x.Name)
		}
		sb.WriteString("\n")
		for _, st := range x.Stmts {
			sb.WriteString(indent + "    ")
			printStmt(sb, st, indent+"    ")
		}
		sb.WriteString(indent + "end\n")
	case *Assign:
		op := "="
		if x.NonBlocking {
			op = "<="
		}
		fmt.Fprintf(sb, "%s %s %s;\n", ExprString(x.LHS), op, ExprString(x.RHS))
	case *If:
		fmt.Fprintf(sb, "if (%s) ", ExprString(x.Cond))
		printNested(sb, x.Then, indent)
		if x.Else != nil {
			sb.WriteString(indent)
			sb.WriteString("else ")
			printNested(sb, x.Else, indent)
		}
	case *Case:
		fmt.Fprintf(sb, "%s (%s)\n", x.Kind, ExprString(x.Expr))
		for _, item := range x.Items {
			sb.WriteString(indent + "    ")
			if item.Exprs == nil {
				sb.WriteString("default")
			} else {
				labels := make([]string, len(item.Exprs))
				for i, e := range item.Exprs {
					labels[i] = ExprString(e)
				}
				sb.WriteString(strings.Join(labels, ", "))
			}
			sb.WriteString(": ")
			printNested(sb, item.Body, indent+"    ")
		}
		sb.WriteString(indent + "endcase\n")
	case *For:
		fmt.Fprintf(sb, "for (%s; %s; %s) ",
			assignHead(x.Init), ExprString(x.Cond), assignHead(x.Step))
		printNested(sb, x.Body, indent)
	case *Repeat:
		fmt.Fprintf(sb, "repeat (%s) ", ExprString(x.Count))
		printNested(sb, x.Body, indent)
	case *Delay:
		fmt.Fprintf(sb, "#%s ", ExprString(x.Amount))
		if _, isNull := x.Body.(*Null); isNull {
			sb.WriteString(";\n")
		} else {
			printNested(sb, x.Body, indent)
		}
	case *SysCall:
		sb.WriteString(x.Name)
		if len(x.Args) > 0 {
			args := make([]string, len(x.Args))
			for i, a := range x.Args {
				args[i] = ExprString(a)
			}
			fmt.Fprintf(sb, "(%s)", strings.Join(args, ", "))
		}
		sb.WriteString(";\n")
	default:
		sb.WriteString("/* unknown stmt */;\n")
	}
}

func assignHead(a *Assign) string {
	op := "="
	if a.NonBlocking {
		op = "<="
	}
	return fmt.Sprintf("%s %s %s", ExprString(a.LHS), op, ExprString(a.RHS))
}

// printNested prints a sub-statement of if/for/case arms, keeping
// blocks inline.
func printNested(sb *strings.Builder, s Stmt, indent string) {
	printStmt(sb, s, indent)
}

// ExprString renders an expression with full parenthesization of
// binary and ternary sub-expressions, which keeps printing simple and
// round-trip safe.
func ExprString(e Expr) string {
	switch x := e.(type) {
	case nil:
		return ""
	case *Ident:
		return x.Name
	case *Number:
		if x.Text != "" {
			return x.Text
		}
		if x.Width == 0 {
			v, ok := x.Val.Uint64()
			if ok {
				return fmt.Sprintf("%d", v)
			}
			return "32'b" + x.Val.String()
		}
		return x.Val.VerilogLiteral()
	case *StringLit:
		// Value is the raw text between the quotes, escapes undecoded
		// (the lexer's form), so it prints back verbatim.
		return "\"" + x.Value + "\""
	case *Unary:
		return fmt.Sprintf("%s(%s)", x.Op, ExprString(x.X))
	case *Binary:
		return fmt.Sprintf("(%s %s %s)", ExprString(x.X), x.Op, ExprString(x.Y))
	case *Ternary:
		return fmt.Sprintf("((%s) ? (%s) : (%s))", ExprString(x.Cond), ExprString(x.Then), ExprString(x.Else))
	case *Concat:
		parts := make([]string, len(x.Parts))
		for i, p := range x.Parts {
			parts[i] = ExprString(p)
		}
		return "{" + strings.Join(parts, ", ") + "}"
	case *Repl:
		return fmt.Sprintf("{%s{%s}}", ExprString(x.Count), ExprString(x.Value))
	case *Index:
		return fmt.Sprintf("%s[%s]", ExprString(x.X), ExprString(x.Index))
	case *PartSelect:
		return fmt.Sprintf("%s[%s:%s]", ExprString(x.X), ExprString(x.MSB), ExprString(x.LSB))
	default:
		return "/*?*/"
	}
}
