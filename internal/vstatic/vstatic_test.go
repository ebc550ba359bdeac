package vstatic_test

import (
	"context"
	"strings"
	"testing"

	"correctbench/internal/sim"
	"correctbench/internal/vstatic"
)

// analyze parses one module and returns its result, failing the test
// on parse errors.
func analyze(t *testing.T, src string) *vstatic.Result {
	t.Helper()
	rs, err := vstatic.AnalyzeSource(src, "")
	if err != nil {
		t.Fatalf("AnalyzeSource: %v", err)
	}
	if len(rs) != 1 {
		t.Fatalf("got %d modules, want 1", len(rs))
	}
	return rs[0]
}

// wantDiag asserts exactly one diagnostic with the given code whose
// message contains frag.
func wantDiag(t *testing.T, r *vstatic.Result, code, frag string) {
	t.Helper()
	var hits []vstatic.Diagnostic
	for _, d := range r.Diags {
		if d.Code == code {
			hits = append(hits, d)
		}
	}
	if len(hits) != 1 {
		t.Fatalf("want exactly one %q diagnostic, got %d (all: %v)", code, len(hits), r.Diags)
	}
	if !strings.Contains(hits[0].Msg, frag) {
		t.Fatalf("diagnostic %q does not mention %q", hits[0].Msg, frag)
	}
}

func TestLatchInference(t *testing.T) {
	r := analyze(t, `module m(input en, input d, output reg q);
always @(*) if (en) q = d;
endmodule`)
	wantDiag(t, r, "latch", `"q" is not assigned on every path`)
	if r.Levelizable {
		t.Fatal("latch process must not be levelizable")
	}
	if r.CombProcs != 1 || r.StaticCombProcs != 0 {
		t.Fatalf("proc counts = %d/%d, want 0/1", r.StaticCombProcs, r.CombProcs)
	}
}

func TestLatchAvoidedByDefaultAssignment(t *testing.T) {
	r := analyze(t, `module m(input en, input d, output reg q);
always @(*) begin
  q = 1'b0;
  if (en) q = d;
end
endmodule`)
	if len(r.Diags) != 0 || !r.Levelizable {
		t.Fatalf("default-then-override must be clean and levelizable, got %v", r.Diags)
	}
}

func TestBitGranularPartialWrites(t *testing.T) {
	// One continuous assign per bit, in dependency-chain order —
	// the gray_dec4 idiom the bit-granular widening exists for.
	r := analyze(t, `module m(input [3:0] g, output [3:0] b);
assign b[3] = g[3];
assign b[2] = b[3] ^ g[2];
assign b[1] = b[2] ^ g[1];
assign b[0] = b[1] ^ g[0];
endmodule`)
	if len(r.Diags) != 0 {
		t.Fatalf("per-bit assign chain must be clean, got %v", r.Diags)
	}
	if !r.Levelizable || r.StaticCombProcs != 4 {
		t.Fatalf("per-bit assign chain must be levelizable (got lev=%v static=%d)", r.Levelizable, r.StaticCombProcs)
	}
}

func TestMultiDriverOverlappingBits(t *testing.T) {
	r := analyze(t, `module m(input a, input b, output [1:0] y);
assign y[0] = a;
assign y[0] = b;
endmodule`)
	wantDiag(t, r, "multi-driver", `"y"`)
	if r.Levelizable {
		t.Fatal("overlapping drivers must not be levelizable")
	}
}

func TestDisjointBitDriversAreClean(t *testing.T) {
	r := analyze(t, `module m(input a, input b, output [1:0] y);
assign y[0] = a;
assign y[1] = b;
endmodule`)
	if len(r.Diags) != 0 || !r.Levelizable {
		t.Fatalf("disjoint bit drivers must be clean, got %v", r.Diags)
	}
}

func TestCombLoop(t *testing.T) {
	r := analyze(t, `module m(input a, output x, output y);
assign x = y & a;
assign y = x | a;
endmodule`)
	wantDiag(t, r, "comb-loop", "combinational loop")
	if r.Levelizable {
		t.Fatal("a comb loop must not be levelizable")
	}
	// A loop is a warning, never an error: event-driven simulation
	// may still settle it.
	for _, d := range r.Diags {
		if d.Code == "comb-loop" && d.Severity != vstatic.SevWarning {
			t.Fatalf("comb-loop severity = %v, want warning", d.Severity)
		}
	}
}

func TestMixedDriver(t *testing.T) {
	r := analyze(t, `module m(input clk, input d, output reg q);
always @(posedge clk) q <= d;
always @(*) q = d;
endmodule`)
	wantDiag(t, r, "mixed-driver", `"q"`)
}

func TestDriveInput(t *testing.T) {
	r := analyze(t, `module m(input a, output y);
assign a = 1'b0;
assign y = a;
endmodule`)
	wantDiag(t, r, "drive-input", `"a"`)
}

func TestUndeclaredIdentifier(t *testing.T) {
	r := analyze(t, `module m(input a, output y);
assign y = a & ghost;
endmodule`)
	wantDiag(t, r, "undeclared", `"ghost"`)
}

func TestWidthTruncation(t *testing.T) {
	r := analyze(t, `module m(input [7:0] a, input [7:0] b, output [3:0] y);
assign y = a & b;
endmodule`)
	wantDiag(t, r, "width-trunc", "truncated to 4 bits")
}

func TestWidthValueAwareLiterals(t *testing.T) {
	// Unsized literals are 32 bits by self-determined width, but the
	// value 1 fits anywhere: must not flag.
	r := analyze(t, `module m(input [3:0] a, output [3:0] y);
assign y = a + 1;
endmodule`)
	if len(r.Diags) != 0 {
		t.Fatalf("a + 1 into 4 bits must be clean, got %v", r.Diags)
	}
}

func TestWidthExtensionInfo(t *testing.T) {
	r := analyze(t, `module m(input [1:0] a, output [7:0] y);
assign y = a;
endmodule`)
	wantDiag(t, r, "width-ext", "zero-extended")
	if n := r.Count(vstatic.SevWarning); n != 0 {
		t.Fatalf("extension is info-severity, got %d warnings", n)
	}
}

func TestSensitivityMiss(t *testing.T) {
	r := analyze(t, `module m(input a, input b, output reg y);
always @(a) y = a & b;
endmodule`)
	wantDiag(t, r, "sens-miss", `"b"`)
	if r.Levelizable {
		t.Fatal("sens-miss process must not be levelizable")
	}
}

func TestConstCondition(t *testing.T) {
	r := analyze(t, `module m(input a, output reg y);
always @(*) begin
  y = a;
  if (1'b0) y = ~a;
end
endmodule`)
	wantDiag(t, r, "const-cond", "never true")

	// Bit-selects and ternaries of parameters fold with the engine's
	// evaluator too.
	for _, cond := range []string{"P[1]", "P == 2'b10 ? 1'b1 : 1'b0"} {
		r := analyze(t, `module m(input a, output reg y);
localparam P = 2'b10;
always @(*) begin
  y = a;
  if (`+cond+`) y = ~a;
end
endmodule`)
		wantDiag(t, r, "const-cond", "constantly true")
	}
}

func TestUnreachableCaseArmWidth(t *testing.T) {
	r := analyze(t, `module m(input [1:0] s, output reg y);
always @(*) case (s)
  2'd0: y = 1'b0;
  3'd4: y = 1'b1;
  default: y = 1'b0;
endcase
endmodule`)
	wantDiag(t, r, "unreachable-arm", "cannot match")

	// A part-select with a non-constant bound has no static width: the
	// engine matches 2'd2 at s = 1, so the arm must not be flagged.
	r = analyze(t, `module m(input [3:0] a, input [1:0] s, output reg y);
always @(*) case (a[s:0])
  2'd2: y = 1'b1;
  default: y = 1'b0;
endcase
endmodule`)
	for _, d := range r.Diags {
		t.Errorf("non-constant part-select selector: unexpected diagnostic %s", d)
	}
}

func TestDuplicateCaseArm(t *testing.T) {
	r := analyze(t, `module m(input [1:0] s, output reg y);
always @(*) case (s)
  2'd1: y = 1'b0;
  2'd1: y = 1'b1;
  default: y = 1'b0;
endcase
endmodule`)
	wantDiag(t, r, "dup-arm", "duplicates an earlier arm")
}

func TestParameterizedWidthsResolve(t *testing.T) {
	r := analyze(t, `module m(input [7:0] a, output [7:0] y);
parameter W = 8;
wire [W-1:0] t;
assign t = a;
assign y = t;
endmodule`)
	if len(r.Diags) != 0 || !r.Levelizable {
		t.Fatalf("parameterized widths must resolve cleanly, got %v", r.Diags)
	}
}

// TestDeclsFollowTheElaborator lints declarations by the elaborator's
// own rules: a module the elaborator rejects for a declaration gets one
// bad-range diagnostic carrying the elaborator's text, and a module it
// accepts gets none.
func TestDeclsFollowTheElaborator(t *testing.T) {
	for _, tc := range []struct{ src, want string }{
		// A port re-declared with another width.
		{"module m(input [3:0] a, output [3:0] q); reg [7:0] q; always @(*) q = {a, a}; endmodule", "conflicting widths for q: 4 vs 8"},
		// Past the width cap: too wide, not non-constant.
		{"module m(input a, output y); wire [2000000:0] big; assign y = a; endmodule", "vector too wide (2000001 bits)"},
		{"module m(input a, output y); wire [3:1] t; assign y = a; endmodule", "only [msb:0] ranges are supported (got lsb=1)"},
		{"module m(input a, output y); parameter W = 2; wire [W+a:0] t; assign y = a; endmodule", `constant expression: "a" is not a constant`},
		{"module m(input a, output y); wire [1'bz:0] t; assign y = a; endmodule", "range bounds must be fully defined"},
		// Parameters resolve before any declaration.
		{"module m(input a, output [W-1:0] y); assign y = {W{a}}; parameter W = 4; endmodule", ""},
	} {
		_, elabErr := sim.ElaborateSourceContext(context.Background(), tc.src, "m")
		var lint []string
		for _, d := range analyze(t, tc.src).Diags {
			if d.Code == vstatic.CodeBadRange {
				lint = append(lint, d.Msg)
			}
		}
		if tc.want == "" {
			if elabErr != nil || len(lint) != 0 {
				t.Errorf("%s: elaboration error %v, bad-range diagnostics %q; want neither", tc.src, elabErr, lint)
			}
			continue
		}
		if elabErr == nil || !strings.HasSuffix(elabErr.Error(), ": "+tc.want) {
			t.Errorf("%s: elaboration error %v, want one ending %q", tc.src, elabErr, tc.want)
		}
		if len(lint) != 1 || lint[0] != tc.want {
			t.Errorf("%s: bad-range diagnostics %q, want exactly %q", tc.src, lint, tc.want)
		}
	}
}

func TestDiagnosticsDeterministic(t *testing.T) {
	src := `module m(input a, input b, output reg q, output x, output x2);
always @(a) q = a & b & ghost;
assign x = x2 | a;
assign x2 = x & b;
endmodule`
	first := analyze(t, src)
	for i := 0; i < 5; i++ {
		again := analyze(t, src)
		if len(again.Diags) != len(first.Diags) {
			t.Fatalf("diag count varies: %d vs %d", len(again.Diags), len(first.Diags))
		}
		for j := range again.Diags {
			if again.Diags[j] != first.Diags[j] {
				t.Fatalf("diag %d varies: %v vs %v", j, again.Diags[j], first.Diags[j])
			}
		}
	}
}

func TestAnalyzeSourceTopSelection(t *testing.T) {
	src := `module a(output y); assign y = 1'b0; endmodule
module b(output y); assign y = ghost; endmodule`
	rs, err := vstatic.AnalyzeSource(src, "a")
	if err != nil || len(rs) != 1 || rs[0].Module != "a" {
		t.Fatalf("top selection failed: %v %v", rs, err)
	}
	if _, err := vstatic.AnalyzeSource(src, "zzz"); err == nil {
		t.Fatal("missing top must error")
	}
	rs, err = vstatic.AnalyzeSource(src, "")
	if err != nil || len(rs) != 2 {
		t.Fatalf("all-modules analysis failed: %v %v", rs, err)
	}
}

func TestMaskOps(t *testing.T) {
	m := vstatic.NewMask(70)
	if !m.Empty() || m.Full() {
		t.Fatal("new mask must be empty")
	}
	m.SetBit(0)
	m.SetBit(69)
	if !m.Bit(0) || !m.Bit(69) || m.Bit(35) {
		t.Fatal("SetBit/Bit mismatch")
	}
	o := vstatic.NewMask(70)
	o.SetRange(1, 68)
	if m.Intersects(o) {
		t.Fatal("disjoint masks must not intersect")
	}
	o.Or(m)
	if !o.Full() {
		t.Fatal("union of 0,69 and 1..68 must be full")
	}
	if !o.Covers(m) || m.Covers(o) {
		t.Fatal("Covers mismatch")
	}
	c := o.Clone()
	c.And(m)
	if !c.Bit(0) || !c.Bit(69) || c.Bit(1) {
		t.Fatal("And mismatch")
	}
}

func TestSCCs(t *testing.T) {
	// 0→1→2→0 is one cycle; 3 is a singleton fed by the cycle.
	sccs := vstatic.SCCs(4, [][2]int{{0, 1}, {1, 2}, {2, 0}, {2, 3}})
	if len(sccs) != 2 {
		t.Fatalf("got %d SCCs, want 2: %v", len(sccs), sccs)
	}
	if len(sccs[0]) != 3 || sccs[0][0] != 0 || sccs[0][2] != 2 {
		t.Fatalf("cycle SCC wrong: %v", sccs)
	}
	if len(sccs[1]) != 1 || sccs[1][0] != 3 {
		t.Fatalf("singleton SCC wrong: %v", sccs)
	}
}
