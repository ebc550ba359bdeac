package verilog

import "correctbench/internal/logic"

// SourceFile is a parsed Verilog source unit.
type SourceFile struct {
	Modules []*Module
}

// Module finds the module with the given name, or nil.
func (f *SourceFile) Module(name string) *Module {
	for _, m := range f.Modules {
		if m.Name == name {
			return m
		}
	}
	return nil
}

// Module is a module declaration.
type Module struct {
	Name      string
	PortOrder []string // names in header order
	Items     []Item
	Pos       Pos
}

// Ports returns the declarations that are ports, in header order where
// possible.
func (m *Module) Ports() []*Decl {
	byName := map[string]*Decl{}
	var all []*Decl
	for _, it := range m.Items {
		d, ok := it.(*Decl)
		if !ok || !d.Kind.IsPort() {
			continue
		}
		all = append(all, d)
		for _, n := range d.Names {
			byName[n] = d
		}
	}
	if len(m.PortOrder) == 0 {
		return all
	}
	seen := map[*Decl]bool{}
	var ordered []*Decl
	for _, n := range m.PortOrder {
		if d := byName[n]; d != nil && !seen[d] {
			ordered = append(ordered, d)
			seen[d] = true
		}
	}
	for _, d := range all {
		if !seen[d] {
			ordered = append(ordered, d)
		}
	}
	return ordered
}

// Item is a module-body item.
type Item interface{ item() }

// DeclKind classifies declarations.
type DeclKind int

// Declaration kinds.
const (
	DeclWire DeclKind = iota
	DeclReg
	DeclInteger
	DeclInput
	DeclOutput
	DeclInout
	DeclParameter
	DeclLocalparam
)

// IsPort reports whether the kind is a port direction.
func (k DeclKind) IsPort() bool {
	return k == DeclInput || k == DeclOutput || k == DeclInout
}

func (k DeclKind) String() string {
	switch k {
	case DeclWire:
		return "wire"
	case DeclReg:
		return "reg"
	case DeclInteger:
		return "integer"
	case DeclInput:
		return "input"
	case DeclOutput:
		return "output"
	case DeclInout:
		return "inout"
	case DeclParameter:
		return "parameter"
	case DeclLocalparam:
		return "localparam"
	default:
		return "?"
	}
}

// Decl declares nets, variables, ports or parameters. A port declared
// "output reg [3:0] q" has Kind DeclOutput and IsReg set.
type Decl struct {
	Kind   DeclKind
	IsReg  bool // output reg
	Signed bool
	Range  *Range
	Names  []string
	Init   Expr // parameter/localparam value, or nil
	Pos    Pos
}

func (*Decl) item() {}

// Range is a bit range [MSB:LSB].
type Range struct {
	MSB, LSB Expr
}

// ContAssign is a continuous assignment: assign LHS = RHS.
type ContAssign struct {
	LHS, RHS Expr
	Pos      Pos
}

func (*ContAssign) item() {}

// EdgeKind classifies sensitivity-list entries.
type EdgeKind int

// Edge kinds.
const (
	EdgeNone EdgeKind = iota // level sensitivity
	EdgePos
	EdgeNeg
)

func (e EdgeKind) String() string {
	switch e {
	case EdgePos:
		return "posedge"
	case EdgeNeg:
		return "negedge"
	default:
		return ""
	}
}

// SensItem is one entry of a sensitivity list.
type SensItem struct {
	Edge EdgeKind
	Sig  string
}

// Always is an always block. Star means @(*) / @*; otherwise Sens holds
// the sensitivity list (empty Sens with Star false means "always" with
// no event control, which the subset rejects at elaboration).
type Always struct {
	Star bool
	Sens []SensItem
	Body Stmt
	Pos  Pos
}

func (*Always) item() {}

// Initial is an initial block.
type Initial struct {
	Body Stmt
	Pos  Pos
}

func (*Initial) item() {}

// Connection is a port or parameter connection of an instance. An empty
// Name means positional.
type Connection struct {
	Name string
	Expr Expr
}

// Instance instantiates a module.
type Instance struct {
	Module string
	Name   string
	Params []Connection
	Conns  []Connection
	Pos    Pos
}

func (*Instance) item() {}

// ---- statements ----

// Stmt is a procedural statement.
type Stmt interface{ stmt() }

// Block is begin ... end.
type Block struct {
	Name  string
	Stmts []Stmt
}

func (*Block) stmt() {}

// Assign is a procedural assignment; NonBlocking selects <= vs =.
type Assign struct {
	LHS         Expr
	RHS         Expr
	NonBlocking bool
	Pos         Pos
}

func (*Assign) stmt() {}

// If is if (Cond) Then else Else; Else may be nil.
type If struct {
	Cond Expr
	Then Stmt
	Else Stmt
}

func (*If) stmt() {}

// CaseKind selects case/casez/casex matching.
type CaseKind int

// Case kinds.
const (
	CaseExact CaseKind = iota
	CaseZ
	CaseX
)

func (k CaseKind) String() string {
	switch k {
	case CaseZ:
		return "casez"
	case CaseX:
		return "casex"
	default:
		return "case"
	}
}

// CaseItem is one arm of a case statement; nil Exprs marks default.
type CaseItem struct {
	Exprs []Expr
	Body  Stmt
}

// Case is a case/casez/casex statement.
type Case struct {
	Kind  CaseKind
	Expr  Expr
	Items []CaseItem
}

func (*Case) stmt() {}

// For is for (Init; Cond; Step) Body.
type For struct {
	Init *Assign
	Cond Expr
	Step *Assign
	Body Stmt
}

func (*For) stmt() {}

// Repeat is repeat (Count) Body.
type Repeat struct {
	Count Expr
	Body  Stmt
}

func (*Repeat) stmt() {}

// Delay is "#Amount Body" (Body may be Null for a bare delay).
type Delay struct {
	Amount Expr
	Body   Stmt
}

func (*Delay) stmt() {}

// SysCall is a system-task statement such as $display(...) or $finish.
type SysCall struct {
	Name string
	Args []Expr
	Pos  Pos
}

func (*SysCall) stmt() {}

// NoOpTask reports whether the system task name is accepted with no
// effect: a call to it does nothing and evaluates no argument.
func NoOpTask(name string) bool {
	switch name {
	case "$time", "$random", "$dumpfile", "$dumpvars", "$timeformat":
		return true
	}
	return false
}

// Null is the empty statement ";".
type Null struct{}

func (*Null) stmt() {}

// ---- expressions ----

// Expr is an expression node.
type Expr interface{ expr() }

// Ident is a name reference.
type Ident struct {
	Name string
	Pos  Pos
}

func (*Ident) expr() {}

// Number is a literal. Width 0 means unsized (treated as 32 bits).
type Number struct {
	Width int
	Val   logic.Vector
	Text  string // original spelling, kept for printing
}

func (*Number) expr() {}

// StringLit is a string literal (only valid as a $display argument).
type StringLit struct {
	Value string
}

func (*StringLit) expr() {}

// Unary is a prefix operator: ~ ! - + & | ^ ~& ~| ~^.
type Unary struct {
	Op string
	X  Expr
}

func (*Unary) expr() {}

// Binary is an infix operator.
type Binary struct {
	Op   string
	X, Y Expr
	Pos  Pos
}

func (*Binary) expr() {}

// Ternary is Cond ? Then : Else.
type Ternary struct {
	Cond, Then, Else Expr
}

func (*Ternary) expr() {}

// Concat is {a, b, ...}.
type Concat struct {
	Parts []Expr
}

func (*Concat) expr() {}

// Repl is {Count{Value}}.
type Repl struct {
	Count Expr
	Value Expr
}

func (*Repl) expr() {}

// Index is a bit select X[Index].
type Index struct {
	X     Expr
	Index Expr
}

func (*Index) expr() {}

// PartSelect is a constant part select X[MSB:LSB].
type PartSelect struct {
	X        Expr
	MSB, LSB Expr
}

func (*PartSelect) expr() {}

// ---- helpers ----

// WalkExprs calls f for every expression node reachable from e,
// including e itself, in pre-order.
func WalkExprs(e Expr, f func(Expr)) {
	if e == nil {
		return
	}
	f(e)
	switch x := e.(type) {
	case *Unary:
		WalkExprs(x.X, f)
	case *Binary:
		WalkExprs(x.X, f)
		WalkExprs(x.Y, f)
	case *Ternary:
		WalkExprs(x.Cond, f)
		WalkExprs(x.Then, f)
		WalkExprs(x.Else, f)
	case *Concat:
		for _, p := range x.Parts {
			WalkExprs(p, f)
		}
	case *Repl:
		WalkExprs(x.Count, f)
		WalkExprs(x.Value, f)
	case *Index:
		WalkExprs(x.X, f)
		WalkExprs(x.Index, f)
	case *PartSelect:
		WalkExprs(x.X, f)
		WalkExprs(x.MSB, f)
		WalkExprs(x.LSB, f)
	}
}

// WalkStmts calls f for every statement node reachable from s,
// including s itself, in pre-order.
func WalkStmts(s Stmt, f func(Stmt)) {
	if s == nil {
		return
	}
	f(s)
	switch x := s.(type) {
	case *Block:
		for _, st := range x.Stmts {
			WalkStmts(st, f)
		}
	case *If:
		WalkStmts(x.Then, f)
		WalkStmts(x.Else, f)
	case *Case:
		for _, it := range x.Items {
			WalkStmts(it.Body, f)
		}
	case *For:
		if x.Init != nil {
			WalkStmts(x.Init, f)
		}
		if x.Step != nil {
			WalkStmts(x.Step, f)
		}
		WalkStmts(x.Body, f)
	case *Repeat:
		WalkStmts(x.Body, f)
	case *Delay:
		WalkStmts(x.Body, f)
	}
}

// LHSTargets returns the identifier names assigned by the LHS
// expression (an Ident, Index, PartSelect, or Concat of those).
func LHSTargets(lhs Expr) []string {
	var out []string
	switch x := lhs.(type) {
	case *Ident:
		out = append(out, x.Name)
	case *Index:
		out = append(out, LHSTargets(x.X)...)
	case *PartSelect:
		out = append(out, LHSTargets(x.X)...)
	case *Concat:
		for _, p := range x.Parts {
			out = append(out, LHSTargets(p)...)
		}
	}
	return out
}

// DumpKind returns a compact structural tag for an expression, used in
// diagnostics and mutation-site naming.
func DumpKind(e Expr) string {
	switch x := e.(type) {
	case *Ident:
		return "ident:" + x.Name
	case *Number:
		return "number"
	case *Unary:
		return "unary:" + x.Op
	case *Binary:
		return "binary:" + x.Op
	case *Ternary:
		return "ternary"
	case *Concat:
		return "concat"
	case *Repl:
		return "repl"
	case *Index:
		return "index"
	case *PartSelect:
		return "partselect"
	case *StringLit:
		return "string"
	default:
		return "?"
	}
}
