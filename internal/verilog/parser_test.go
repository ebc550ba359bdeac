package verilog

import "testing"

const muxSrc = `
// 2:1 multiplexer
module mux2(
    input [3:0] a,
    input [3:0] b,
    input sel,
    output [3:0] y
);
    assign y = sel ? b : a;
endmodule
`

const counterSrc = `
module counter(
    input clk,
    input rst,
    input en,
    output reg [7:0] q
);
    always @(posedge clk) begin
        if (rst)
            q <= 8'd0;
        else if (en)
            q <= q + 8'd1;
    end
endmodule
`

func TestParseMux(t *testing.T) {
	f, err := Parse(muxSrc)
	if err != nil {
		t.Fatal(err)
	}
	m := f.Module("mux2")
	if m == nil {
		t.Fatal("module mux2 not found")
	}
	ports := m.Ports()
	if len(ports) != 4 {
		t.Fatalf("port decls = %d, want 4", len(ports))
	}
	if ports[0].Kind != DeclInput || ports[0].Range == nil {
		t.Errorf("port a wrong: %+v", ports[0])
	}
	if got := len(m.PortOrder); got != 4 {
		t.Errorf("port order len = %d", got)
	}
	var assigns int
	for _, it := range m.Items {
		if _, ok := it.(*ContAssign); ok {
			assigns++
		}
	}
	if assigns != 1 {
		t.Errorf("assigns = %d", assigns)
	}
}

func TestParseCounter(t *testing.T) {
	f := MustParse(counterSrc)
	m := f.Module("counter")
	var alw *Always
	for _, it := range m.Items {
		if a, ok := it.(*Always); ok {
			alw = a
		}
	}
	if alw == nil {
		t.Fatal("no always block")
	}
	if alw.Star || len(alw.Sens) != 1 || alw.Sens[0].Edge != EdgePos || alw.Sens[0].Sig != "clk" {
		t.Errorf("sensitivity wrong: %+v", alw.Sens)
	}
	blk, ok := alw.Body.(*Block)
	if !ok || len(blk.Stmts) != 1 {
		t.Fatalf("body not a 1-stmt block: %T", alw.Body)
	}
	ifst, ok := blk.Stmts[0].(*If)
	if !ok {
		t.Fatalf("not if: %T", blk.Stmts[0])
	}
	a, ok := ifst.Then.(*Assign)
	if !ok || !a.NonBlocking {
		t.Errorf("then branch not NBA: %#v", ifst.Then)
	}
}

func TestParseNumberForms(t *testing.T) {
	cases := []struct {
		src   string
		width int
		val   string
	}{
		{"4'b1010", 4, "1010"},
		{"4'b10x0", 4, "10x0"},
		{"8'hff", 8, "11111111"},
		{"8'hzz", 8, "zzzzzzzz"},
		{"3'o5", 3, "101"},
		{"4'd9", 4, "1001"},
		{"2'b1_0", 2, "10"},
	}
	for _, c := range cases {
		n, err := parseNumber(Token{Kind: TokNumber, Text: c.src})
		if err != nil {
			t.Errorf("parseNumber(%q): %v", c.src, err)
			continue
		}
		if n.Width != c.width || n.Val.String() != c.val {
			t.Errorf("parseNumber(%q) = width %d val %s, want %d %s", c.src, n.Width, n.Val, c.width, c.val)
		}
	}
	if _, err := parseNumber(Token{Kind: TokNumber, Text: "4'b"}); err == nil {
		t.Error("accepted digitless literal")
	}
	// Unsized decimal becomes 32-bit.
	n, err := parseNumber(Token{Kind: TokNumber, Text: "42"})
	if err != nil || n.Width != 0 {
		t.Errorf("unsized literal: %v %v", n, err)
	}
	if v, _ := n.Val.Uint64(); v != 42 {
		t.Errorf("unsized value = %d", v)
	}
}

func TestParsePrecedence(t *testing.T) {
	f := MustParse("module m(input a, input b, input c, output y); assign y = a | b & c; endmodule")
	ca := findAssign(f.Modules[0])
	bin, ok := ca.RHS.(*Binary)
	if !ok || bin.Op != "|" {
		t.Fatalf("top op = %v", DumpKind(ca.RHS))
	}
	inner, ok := bin.Y.(*Binary)
	if !ok || inner.Op != "&" {
		t.Errorf("& should bind tighter than |: %v", DumpKind(bin.Y))
	}
}

func TestParseTernaryRightAssoc(t *testing.T) {
	f := MustParse("module m(input a, input b, output y); assign y = a ? b : a ? 1'b0 : 1'b1; endmodule")
	ca := findAssign(f.Modules[0])
	tern, ok := ca.RHS.(*Ternary)
	if !ok {
		t.Fatal("not ternary")
	}
	if _, ok := tern.Else.(*Ternary); !ok {
		t.Error("ternary not right associative")
	}
}

func TestParseConcatReplSeparate(t *testing.T) {
	f := MustParse("module m(input [3:0] a, output [7:0] y); assign y = {{4{a[3]}}, a}; endmodule")
	ca := findAssign(f.Modules[0])
	c, ok := ca.RHS.(*Concat)
	if !ok || len(c.Parts) != 2 {
		t.Fatalf("not 2-part concat: %v", DumpKind(ca.RHS))
	}
	if _, ok := c.Parts[0].(*Repl); !ok {
		t.Errorf("first part not replication: %v", DumpKind(c.Parts[0]))
	}
}

func TestParseCaseKinds(t *testing.T) {
	src := `
module m(input [1:0] s, output reg y);
    always @(*) begin
        casez (s)
            2'b1?: y = 1'b1;
            default: y = 1'b0;
        endcase
    end
endmodule`
	f := MustParse(src)
	var cs *Case
	WalkStmts(findAlways(f.Modules[0]).Body, func(s Stmt) {
		if c, ok := s.(*Case); ok {
			cs = c
		}
	})
	if cs == nil || cs.Kind != CaseZ {
		t.Fatalf("casez not parsed: %+v", cs)
	}
	if len(cs.Items) != 2 || cs.Items[1].Exprs != nil {
		t.Errorf("case items wrong: %d", len(cs.Items))
	}
}

func TestParseInstance(t *testing.T) {
	src := `
module top(input a, output y);
    wire w;
    inv u1(.in(a), .out(w));
    inv u2(w, y);
endmodule
module inv(input in, output out);
    assign out = ~in;
endmodule`
	f := MustParse(src)
	top := f.Module("top")
	var insts []*Instance
	for _, it := range top.Items {
		if inst, ok := it.(*Instance); ok {
			insts = append(insts, inst)
		}
	}
	if len(insts) != 2 {
		t.Fatalf("instances = %d", len(insts))
	}
	if insts[0].Conns[0].Name != "in" || insts[1].Conns[0].Name != "" {
		t.Errorf("connection styles wrong: %+v %+v", insts[0].Conns, insts[1].Conns)
	}
}

func TestParseParameters(t *testing.T) {
	src := `
module m #(parameter W = 4, parameter INIT = 8'hff) (input [W-1:0] a, output [W-1:0] y);
    localparam TOP = W - 1;
    assign y = a;
endmodule`
	f := MustParse(src)
	m := f.Modules[0]
	var params, locals int
	for _, it := range m.Items {
		if d, ok := it.(*Decl); ok {
			switch d.Kind {
			case DeclParameter:
				params++
			case DeclLocalparam:
				locals++
			}
		}
	}
	if params != 2 || locals != 1 {
		t.Errorf("params = %d locals = %d", params, locals)
	}
}

func TestParseForAndRepeat(t *testing.T) {
	src := `
module m(input [7:0] a, output reg [3:0] n);
    integer i;
    always @(*) begin
        n = 4'd0;
        for (i = 0; i < 8; i = i + 1)
            if (a[i]) n = n + 4'd1;
    end
endmodule`
	f := MustParse(src)
	var forCount int
	WalkStmts(findAlways(f.Modules[0]).Body, func(s Stmt) {
		if _, ok := s.(*For); ok {
			forCount++
		}
	})
	if forCount != 1 {
		t.Errorf("for loops = %d", forCount)
	}
}

func TestParseErrorsHavePositions(t *testing.T) {
	bad := []string{
		"module ; endmodule",
		"module m(input a; endmodule",
		"module m(input a); assign = 1; endmodule",
		"module m(input a); always @(posedge) x <= 1; endmodule",
		"module m(input a); assign y = (a; endmodule",
		"module m(input a);",
		"",
		"garbage",
	}
	for _, src := range bad {
		_, err := Parse(src)
		if err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
			continue
		}
		if pe, ok := err.(*ParseError); !ok || pe.Pos.Line == 0 {
			t.Errorf("Parse(%q) error lacks position: %v", src, err)
		}
	}
}

func TestParseWireWithInit(t *testing.T) {
	f := MustParse("module m(input a, output y); wire w = ~a; assign y = w; endmodule")
	m := f.Modules[0]
	var assigns int
	for _, it := range m.Items {
		if _, ok := it.(*ContAssign); ok {
			assigns++
		}
	}
	if assigns != 2 {
		t.Errorf("wire init should synthesize assign; got %d assigns", assigns)
	}
}

func TestExprIdentsAndLHSTargets(t *testing.T) {
	f := MustParse("module m(input [3:0] a, input [3:0] b, output [3:0] y); assign y = (a & b) | a; endmodule")
	ca := findAssign(f.Modules[0])
	if tg := LHSTargets(ca.LHS); len(tg) != 1 || tg[0] != "y" {
		t.Errorf("targets = %v", tg)
	}
}

func findAssign(m *Module) *ContAssign {
	for _, it := range m.Items {
		if ca, ok := it.(*ContAssign); ok {
			return ca
		}
	}
	return nil
}

func findAlways(m *Module) *Always {
	for _, it := range m.Items {
		if a, ok := it.(*Always); ok {
			return a
		}
	}
	return nil
}

// ---- round-trip properties ----

var roundTripSources = []string{
	muxSrc,
	counterSrc,
	`module alu(input [7:0] a, input [7:0] b, input [1:0] op, output reg [7:0] y);
    always @(*) begin
        case (op)
            2'b00: y = a + b;
            2'b01: y = a - b;
            2'b10: y = a & b;
            default: y = a ^ b;
        endcase
    end
endmodule`,
	`module shift(input clk, input [1:0] amount, output reg [63:0] q);
    always @(posedge clk) begin
        q <= (q >>> 8) | {8{q[63]}};
    end
endmodule`,
	`module fsm(input clk, input rst, input x, output reg z);
    reg [1:0] state;
    localparam S0 = 0;
    always @(posedge clk) begin
        if (rst) state <= 2'd0;
        else begin
            case (state)
                2'd0: state <= x ? 2'd1 : 2'd0;
                2'd1: state <= x ? 2'd1 : 2'd2;
                2'd2: state <= x ? 2'd1 : 2'd0;
                default: state <= 2'd0;
            endcase
        end
    end
    always @(*) z = (state == 2'd2) & x;
endmodule`,
	`module t(input a, input b, output y, output w);
    assign y = a === 1'bx, w = {a, b} != 2'b01;
endmodule`,
}

func TestPrintParseRoundTrip(t *testing.T) {
	for i, src := range roundTripSources {
		f1, err := Parse(src)
		if err != nil {
			t.Fatalf("source %d: %v", i, err)
		}
		p1 := Print(f1)
		f2, err := Parse(p1)
		if err != nil {
			t.Fatalf("source %d reparse failed: %v\n%s", i, err, p1)
		}
		p2 := Print(f2)
		if p1 != p2 {
			t.Errorf("source %d not round-trip stable:\n--- first ---\n%s\n--- second ---\n%s", i, p1, p2)
		}
	}
}
