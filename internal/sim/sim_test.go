package sim

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"correctbench/internal/logic"
)

func mustElab(t *testing.T, src, top string) *Design {
	t.Helper()
	d, err := ElaborateSourceContext(context.Background(), src, top)
	if err != nil {
		t.Fatalf("elaborate: %v", err)
	}
	return d
}

func getUint(t *testing.T, in *Instance, name string) uint64 {
	t.Helper()
	v := in.MustGet(name)
	u, ok := v.Uint64()
	if !ok {
		t.Fatalf("%s = %s (not fully defined)", name, v)
	}
	return u
}

func TestCombMux(t *testing.T) {
	d := mustElab(t, `
module mux2(input [3:0] a, input [3:0] b, input sel, output [3:0] y);
    assign y = sel ? b : a;
endmodule`, "mux2")
	in := NewInstance(d)
	if err := in.ZeroInputs(); err != nil {
		t.Fatal(err)
	}
	in.SetInputUint("a", 5)
	in.SetInputUint("b", 9)
	in.SetInputUint("sel", 0)
	if got := getUint(t, in, "y"); got != 5 {
		t.Errorf("y = %d, want 5", got)
	}
	in.SetInputUint("sel", 1)
	if got := getUint(t, in, "y"); got != 9 {
		t.Errorf("y = %d, want 9", got)
	}
}

func TestCombAdderWithCarry(t *testing.T) {
	d := mustElab(t, `
module add4(input [3:0] a, input [3:0] b, input cin, output [3:0] sum, output cout);
    assign {cout, sum} = a + b + cin;
endmodule`, "add4")
	in := NewInstance(d)
	in.ZeroInputs()
	for _, c := range []struct{ a, b, cin, sum, cout uint64 }{
		{3, 4, 0, 7, 0},
		{15, 1, 0, 0, 1},
		{15, 15, 1, 15, 1},
		{8, 7, 1, 0, 1},
	} {
		in.SetInputUint("a", c.a)
		in.SetInputUint("b", c.b)
		in.SetInputUint("cin", c.cin)
		if got := getUint(t, in, "sum"); got != c.sum {
			t.Errorf("sum(%d+%d+%d) = %d, want %d", c.a, c.b, c.cin, got, c.sum)
		}
		if got := getUint(t, in, "cout"); got != c.cout {
			t.Errorf("cout(%d+%d+%d) = %d, want %d", c.a, c.b, c.cin, got, c.cout)
		}
	}
}

func TestSeqCounter(t *testing.T) {
	d := mustElab(t, `
module counter(input clk, input rst, input en, output reg [7:0] q);
    always @(posedge clk) begin
        if (rst) q <= 8'd0;
        else if (en) q <= q + 8'd1;
    end
endmodule`, "counter")
	in := NewInstance(d)
	in.ZeroInputs()
	in.SetInputUint("rst", 1)
	in.Tick("clk")
	if got := getUint(t, in, "q"); got != 0 {
		t.Fatalf("after reset q = %d", got)
	}
	in.SetInputUint("rst", 0)
	in.SetInputUint("en", 1)
	for i := 1; i <= 5; i++ {
		in.Tick("clk")
		if got := getUint(t, in, "q"); got != uint64(i) {
			t.Fatalf("after %d ticks q = %d", i, got)
		}
	}
	in.SetInputUint("en", 0)
	in.Tick("clk")
	if got := getUint(t, in, "q"); got != 5 {
		t.Errorf("enable=0 still counted: q = %d", got)
	}
}

func TestNBASwapSemantics(t *testing.T) {
	// The classic register swap requires NBA to read pre-edge values.
	d := mustElab(t, `
module swap(input clk, input load, input [3:0] va, input [3:0] vb, output reg [3:0] a, output reg [3:0] b);
    always @(posedge clk) begin
        if (load) begin
            a <= va;
            b <= vb;
        end else begin
            a <= b;
            b <= a;
        end
    end
endmodule`, "swap")
	in := NewInstance(d)
	in.ZeroInputs()
	in.SetInputUint("load", 1)
	in.SetInputUint("va", 3)
	in.SetInputUint("vb", 12)
	in.Tick("clk")
	in.SetInputUint("load", 0)
	in.Tick("clk")
	if a, b := getUint(t, in, "a"), getUint(t, in, "b"); a != 12 || b != 3 {
		t.Errorf("swap failed: a=%d b=%d", a, b)
	}
}

func TestBlockingChainInSeq(t *testing.T) {
	// Blocking assignments inside a clocked block propagate within the
	// same edge: q2 sees the new q1.
	d := mustElab(t, `
module chain(input clk, input d, output reg q1, output reg q2);
    always @(posedge clk) begin
        q1 = d;
        q2 = q1;
    end
endmodule`, "chain")
	in := NewInstance(d)
	in.ZeroInputs()
	in.SetInputUint("d", 1)
	in.Tick("clk")
	if q1, q2 := getUint(t, in, "q1"), getUint(t, in, "q2"); q1 != 1 || q2 != 1 {
		t.Errorf("blocking chain: q1=%d q2=%d, want 1 1", q1, q2)
	}
}

func TestNBAChainInSeq(t *testing.T) {
	// Non-blocking chain forms a 2-stage shift register instead.
	d := mustElab(t, `
module chain(input clk, input d, output reg q1, output reg q2);
    always @(posedge clk) begin
        q1 <= d;
        q2 <= q1;
    end
endmodule`, "chain")
	in := NewInstance(d)
	in.ZeroInputs()
	in.Tick("clk") // flush X with d=0
	in.Tick("clk")
	in.SetInputUint("d", 1)
	in.Tick("clk")
	if q1, q2 := getUint(t, in, "q1"), getUint(t, in, "q2"); q1 != 1 || q2 != 0 {
		t.Errorf("NBA chain after 1 tick: q1=%d q2=%d, want 1 0", q1, q2)
	}
	in.Tick("clk")
	if q2 := getUint(t, in, "q2"); q2 != 1 {
		t.Errorf("NBA chain after 2 ticks: q2=%d, want 1", q2)
	}
}

func TestAsyncReset(t *testing.T) {
	d := mustElab(t, `
module ff(input clk, input arst, input d, output reg q);
    always @(posedge clk or posedge arst) begin
        if (arst) q <= 1'b0;
        else q <= d;
    end
endmodule`, "ff")
	in := NewInstance(d)
	in.ZeroInputs()
	in.SetInputUint("d", 1)
	in.Tick("clk")
	if got := getUint(t, in, "q"); got != 1 {
		t.Fatalf("q = %d after load", got)
	}
	// Asserting arst with no clock edge must clear q immediately.
	in.SetInputUint("arst", 1)
	if got := getUint(t, in, "q"); got != 0 {
		t.Errorf("async reset did not fire: q = %d", got)
	}
}

func TestFSMSequenceDetector(t *testing.T) {
	d := mustElab(t, `
module det101(input clk, input rst, input x, output reg z);
    reg [1:0] state;
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
    always @(*) z = (state == 2'd2) && x;
endmodule`, "det101")
	in := NewInstance(d)
	in.ZeroInputs()
	in.SetInputUint("rst", 1)
	in.Tick("clk")
	in.SetInputUint("rst", 0)
	input := []uint64{1, 0, 1, 1, 0, 1, 0, 0, 1}
	wantZ := []uint64{0, 0, 1, 0, 0, 1, 0, 0, 0}
	for i, b := range input {
		in.SetInputUint("x", b)
		if got := getUint(t, in, "z"); got != wantZ[i] {
			t.Errorf("step %d: z = %d, want %d", i, got, wantZ[i])
		}
		in.Tick("clk")
	}
}

func TestHierarchy(t *testing.T) {
	d := mustElab(t, `
module top(input [3:0] a, input [3:0] b, output [3:0] s, output c);
    wire [3:0] t;
    adder u0(.x(a), .y(b), .sum(t), .carry(c));
    assign s = t;
endmodule
module adder(input [3:0] x, input [3:0] y, output [3:0] sum, output carry);
    assign {carry, sum} = x + y;
endmodule`, "top")
	in := NewInstance(d)
	in.ZeroInputs()
	in.SetInputUint("a", 9)
	in.SetInputUint("b", 8)
	if s, c := getUint(t, in, "s"), getUint(t, in, "c"); s != 1 || c != 1 {
		t.Errorf("hier add: s=%d c=%d, want 1 1", s, c)
	}
}

func TestParameterOverride(t *testing.T) {
	d := mustElab(t, `
module top(input [7:0] a, output [7:0] y);
    scale #(.K(3)) u(.in(a), .out(y));
endmodule
module scale #(parameter K = 1) (input [7:0] in, output [7:0] out);
    assign out = in * K;
endmodule`, "top")
	in := NewInstance(d)
	in.ZeroInputs()
	in.SetInputUint("a", 7)
	if got := getUint(t, in, "y"); got != 21 {
		t.Errorf("y = %d, want 21", got)
	}
}

func TestForLoopPopcount(t *testing.T) {
	d := mustElab(t, `
module popcount(input [7:0] a, output reg [3:0] n);
    integer i;
    always @(*) begin
        n = 4'd0;
        for (i = 0; i < 8; i = i + 1)
            if (a[i]) n = n + 4'd1;
    end
endmodule`, "popcount")
	in := NewInstance(d)
	in.ZeroInputs()
	for _, c := range []struct{ a, n uint64 }{{0, 0}, {255, 8}, {0b10110100, 4}, {1, 1}} {
		in.SetInputUint("a", c.a)
		if got := getUint(t, in, "n"); got != c.n {
			t.Errorf("popcount(%#b) = %d, want %d", c.a, got, c.n)
		}
	}
}

func TestCasezPriorityEncoder(t *testing.T) {
	d := mustElab(t, `
module prio(input [3:0] req, output reg [1:0] idx, output reg valid);
    always @(*) begin
        valid = 1'b1;
        casez (req)
            4'b1???: idx = 2'd3;
            4'b01??: idx = 2'd2;
            4'b001?: idx = 2'd1;
            4'b0001: idx = 2'd0;
            default: begin idx = 2'd0; valid = 1'b0; end
        endcase
    end
endmodule`, "prio")
	in := NewInstance(d)
	in.ZeroInputs()
	for _, c := range []struct{ req, idx, valid uint64 }{
		{0b1000, 3, 1}, {0b1111, 3, 1}, {0b0100, 2, 1}, {0b0011, 1, 1}, {0b0001, 0, 1}, {0, 0, 0},
	} {
		in.SetInputUint("req", c.req)
		if idx, v := getUint(t, in, "idx"), getUint(t, in, "valid"); idx != c.idx || v != c.valid {
			t.Errorf("prio(%04b) = idx %d valid %d, want %d %d", c.req, idx, v, c.idx, c.valid)
		}
	}
}

func TestArithmeticShift64(t *testing.T) {
	d := mustElab(t, `
module shifter(input clk, input load, input [1:0] amount, input [63:0] data, output reg [63:0] q);
    always @(posedge clk) begin
        if (load) q <= data;
        else begin
            case (amount)
                2'b00: q <= q << 1;
                2'b01: q <= q << 8;
                2'b10: q <= {q[63], q[63:1]};
                2'b11: q <= {{8{q[63]}}, q[63:8]};
            endcase
        end
    end
endmodule`, "shifter")
	in := NewInstance(d)
	in.ZeroInputs()
	in.SetInputUint("load", 1)
	in.SetInput("data", logic.FromUint64(64, 0x8000000000000001))
	in.Tick("clk")
	in.SetInputUint("load", 0)
	in.SetInputUint("amount", 3) // arithmetic right by 8
	in.Tick("clk")
	if got := getUint(t, in, "q"); got != 0xFF80000000000000 {
		t.Errorf("q = %#x, want 0xff80000000000000", got)
	}
}

func TestPartSelectWriteAndConcatLHS(t *testing.T) {
	d := mustElab(t, `
module m(input [7:0] a, output reg [7:0] y, output reg hi, output reg lo);
    always @(*) begin
        y = 8'd0;
        y[3:0] = a[7:4];
        {hi, lo} = {a[0], a[7]};
    end
endmodule`, "m")
	in := NewInstance(d)
	in.ZeroInputs()
	in.SetInputUint("a", 0xA5)
	if y := getUint(t, in, "y"); y != 0x0A {
		t.Errorf("y = %#x, want 0x0a", y)
	}
	if hi, lo := getUint(t, in, "hi"), getUint(t, in, "lo"); hi != 1 || lo != 1 {
		t.Errorf("hi=%d lo=%d, want 1 1", hi, lo)
	}
}

func TestDynamicBitWrite(t *testing.T) {
	d := mustElab(t, `
module m(input [2:0] sel, input bit_in, output reg [7:0] y);
    always @(*) begin
        y = 8'd0;
        y[sel] = bit_in;
    end
endmodule`, "m")
	in := NewInstance(d)
	in.ZeroInputs()
	in.SetInputUint("bit_in", 1)
	in.SetInputUint("sel", 5)
	if y := getUint(t, in, "y"); y != 32 {
		t.Errorf("y = %d, want 32", y)
	}
}

func TestCombLoopDetected(t *testing.T) {
	d := mustElab(t, `
module osc(input en, output y);
    wire w;
    assign w = en ? ~y : 1'b0;
    assign y = w;
endmodule`, "osc")
	in := NewInstance(d)
	if err := in.ZeroInputs(); err != nil {
		t.Fatalf("settling with en=0 should work: %v", err)
	}
	err := in.SetInputUint("en", 1)
	if err == nil || !strings.Contains(err.Error(), "settle") {
		t.Errorf("oscillation not detected: %v", err)
	}
}

func TestElabErrors(t *testing.T) {
	cases := []struct {
		name, src, top, want string
	}{
		{"unknown top", "module a(); endmodule", "b", "not found"},
		{"undeclared", "module m(input a, output y); assign y = a & b; endmodule", "m", "undeclared"},
		{"wire proc assign", "module m(input a, output y); always @(*) y = a; endmodule", "m", "wire"},
		{"reg cont assign", "module m(input a, output reg y); assign y = a; endmodule", "m", "reg"},
		{"unknown module", "module m(input a, output y); foo u(a, y); endmodule", "m", "unknown module"},
		{"dup decl", "module m(input a, output y); wire [3:0] a; assign y = a; endmodule", "m", "width"},
		{"bad port", "module m(input a, output y); inv u(.zz(a), .out(y)); endmodule\nmodule inv(input in, output out); assign out = ~in; endmodule", "m", "no port"},
	}
	for _, c := range cases {
		_, err := ElaborateSourceContext(context.Background(), c.src, c.top)
		if err == nil {
			t.Errorf("%s: no error", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

func TestDuplicateSameWidthPortDecl(t *testing.T) {
	// Classic style: port named in header, declared input and wire.
	d := mustElab(t, `
module m(a, y);
    input a;
    output y;
    wire a;
    wire y;
    assign y = ~a;
endmodule`, "m")
	in := NewInstance(d)
	in.ZeroInputs()
	in.SetInputUint("a", 0)
	if got := getUint(t, in, "y"); got != 1 {
		t.Errorf("y = %d", got)
	}
}

func TestXPropagationThroughAdd(t *testing.T) {
	d := mustElab(t, `
module m(input [3:0] a, input [3:0] b, output [3:0] s);
    assign s = a + b;
endmodule`, "m")
	in := NewInstance(d)
	// b left X.
	in.SetInputUint("a", 1)
	in.Settle()
	if v := in.MustGet("s"); !v.HasUnknown() {
		t.Errorf("s = %s, want unknown", v)
	}
}

func TestRunInitialWithDisplayAndFinish(t *testing.T) {
	d := mustElab(t, `
module tb;
    reg clk;
    reg [3:0] n;
    wire [3:0] twice;
    assign twice = n * 2;
    always #5 clk = ~clk;
    initial begin
        clk = 0;
        n = 4'd3;
        #10 $display("t=%t n=%d twice=%d", n, twice);
        n = 4'd5;
        #10 $display("t=%t n=%d twice=%d", n, twice);
        $finish;
    end
endmodule`, "tb")
	in := NewInstance(d)
	var buf bytes.Buffer
	in.Stdout = &buf
	if err := Run(in, 1000); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	want1 := "t=10 n=3 twice=6"
	want2 := "t=20 n=5 twice=10"
	if !strings.Contains(out, want1) || !strings.Contains(out, want2) {
		t.Errorf("output:\n%s\nwant lines %q and %q", out, want1, want2)
	}
	if !in.Finished {
		t.Error("$finish did not set Finished")
	}
}

func TestRunDrivesClockedLogic(t *testing.T) {
	d := mustElab(t, `
module tb;
    reg clk, rst;
    wire [7:0] q;
    counter dut(.clk(clk), .rst(rst), .q(q));
    always #5 clk = ~clk;
    initial begin
        clk = 0;
        rst = 1;
        #12 rst = 0;
        #100 $finish;
    end
endmodule
module counter(input clk, input rst, output reg [7:0] q);
    always @(posedge clk) begin
        if (rst) q <= 8'd0;
        else q <= q + 8'd1;
    end
endmodule`, "tb")
	in := NewInstance(d)
	if err := Run(in, 10000); err != nil {
		t.Fatal(err)
	}
	// Posedges at 5,15,25,...,105. rst=1 at t=5; counting from t=15 on.
	// At t=112 ($finish) edges 15..105 inclusive = 10 increments.
	if got := getUint(t, in, "q"); got != 10 {
		t.Errorf("q = %d, want 10", got)
	}
}

func TestTickNAndStats(t *testing.T) {
	d := mustElab(t, `
module c(input clk, output reg [3:0] q);
    always @(posedge clk) q <= q + 4'd1;
endmodule`, "c")
	in := NewInstance(d)
	in.ZeroInputs()
	in.SetInput("q", logic.New(4)) // not a port; expect error
	if err := in.SetInput("q", logic.New(4)); err == nil {
		t.Error("SetInput on non-port should fail")
	}
	// q starts X; X+1 = X until we can't reset... this counter has no
	// reset, so force q via direct write to show TickN works on defined
	// state after wraparound from X is impossible; instead check it
	// stays unknown (realistic behaviour for reset-less counters).
	in.TickN("clk", 3)
	if v := in.MustGet("q"); !v.HasUnknown() {
		t.Errorf("reset-less counter must stay X, got %s", v)
	}
}
