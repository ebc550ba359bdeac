package vstatic_test

import (
	"context"
	"runtime"
	"testing"
	"time"

	"correctbench/internal/dataset"
	"correctbench/internal/sim"
	"correctbench/internal/verilog"
	"correctbench/internal/vstatic"
)

// FuzzAnalyze feeds arbitrary source through the parser into the
// analyzer. Inputs the parser rejects are uninteresting; anything it
// accepts must analyze without panicking, and two runs over the same
// input must produce identical diagnostics (the analyzer is consulted
// by the batch scheduler, so nondeterminism here would leak into
// schedules). Each module without instances that elaborates as top
// must have no bad-range diagnostic (the lint declares signals by the
// elaborator's rules), and is also compiled by the batch engine, which
// must not panic (it compiles only bodies vstatic.Folds accepts), and
// must run it levelized exactly when the lint calls it levelizable.
func FuzzAnalyze(f *testing.F) {
	f.Add(`module m(input a, output y);
assign y = a;
endmodule`)
	f.Add(`module m(input en, input d, output reg q);
always @(*) if (en) q = d;
endmodule`)
	f.Add(`module m(input [3:0] g, output reg [3:0] b);
parameter W = 4;
always @(*) case (g)
  4'd0: b = 4'd1;
  default: b = {g[1:0], 2'b01};
endcase
endmodule`)
	f.Add(`module m(input clk, input d, output reg q);
always @(posedge clk) q <= d;
endmodule`)
	f.Add(`module m(input a, output x, output y);
assign x = y & a;
assign y = x | a;
endmodule`)
	// Widths past the engine's 4,096-bit cap, in an index and in a
	// condition: neither may be sized.
	f.Add(`module m(input [3:0] a, output y);
assign y = a[{1048576{{1048576{1'b1}}}} + 1'b1];
endmodule`)
	f.Add(`module m(input a, output reg y);
always @(*) if ({1048576{{1048576{1'b1}}}} + 1'b1) y = a; else y = 1'b0;
endmodule`)
	// A replication count nested 30 deep: linear work, not 2^30.
	f.Add(nestedCountChecker(30))
	// Bodies the engine runs on the interpreter's rules, and one no-op
	// task that folds.
	const ports = "module m(input clk, input [3:0] a, output reg [3:0] y);\n"
	for _, body := range []string{
		`always @(*) begin y = a; $display("%d", a); end`,
		`always @(posedge clk) begin y <= a; if (a == 4'd3) $finish; end`,
		`always @(posedge clk) begin y <= a; $display("x"); end`,
		`always @(posedge clk) #1 y <= a;`,
		`always @(*) begin y = a; $dumpvars; end`,
	} {
		f.Add(ports + body + "\nendmodule\n")
	}
	// Declarations: a conflicting re-declaration, a vector past the cap,
	// and a parameter declared after its use.
	f.Add("module m(input [3:0] a, output [3:0] q); reg [7:0] q; always @(*) q = {a, a}; endmodule\n")
	f.Add("module m(input a, output y); wire [2000000:0] big; assign y = a; endmodule\n")
	f.Add("module m(input a, output [W-1:0] y); assign y = {W{a}}; parameter W = 4; endmodule\n")
	for i, p := range dataset.All() {
		if i%13 == 0 { // a spread of real designs without bloating the corpus
			f.Add(p.Source)
		}
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<16 {
			return
		}
		first, err := vstatic.AnalyzeSource(src, "")
		if err != nil {
			return
		}
		again, err := vstatic.AnalyzeSource(src, "")
		if err != nil {
			t.Fatalf("second analysis errored where first succeeded: %v", err)
		}
		if len(first) != len(again) {
			t.Fatalf("module count varies: %d vs %d", len(first), len(again))
		}
		for i := range first {
			a, b := first[i], again[i]
			if a.Module != b.Module || a.Levelizable != b.Levelizable ||
				a.CombProcs != b.CombProcs || a.StaticCombProcs != b.StaticCombProcs ||
				len(a.Diags) != len(b.Diags) {
				t.Fatalf("module %q analysis is nondeterministic", a.Module)
			}
			for j := range a.Diags {
				if a.Diags[j] != b.Diags[j] {
					t.Fatalf("module %q diag %d varies: %v vs %v", a.Module, j, a.Diags[j], b.Diags[j])
				}
			}
		}
		file, err := verilog.Parse(src)
		if err != nil {
			t.Fatalf("parse errored where analysis succeeded: %v", err)
		}
		for i, m := range file.Modules {
			r := first[i]
			if r.Hierarchical || file.Module(m.Name) != m {
				continue // a module with instances, or one an earlier namesake shadows
			}
			d, err := sim.ElaborateContext(context.Background(), file, m.Name)
			if err != nil {
				continue
			}
			for _, dg := range r.Diags {
				if dg.Code == vstatic.CodeBadRange {
					t.Fatalf("module %q elaborates, but the lint reports %v", m.Name, dg)
				}
			}
			if lev := sim.CompileBatch(d, []*sim.Design{d})[0].Levelized(); lev != r.Levelizable {
				t.Fatalf("module %q: lint levelizable=%v, engine levelized=%v", m.Name, r.Levelizable, lev)
			}
		}
	})
}

// nestedCountChecker is a checker whose if condition is C_depth, where
// C_0 = 1'b1 and C_k = {C_(k-1){1'b1}}: each replication count is the
// replication one level down, all of value 1.
func nestedCountChecker(depth int) string {
	c := "1'b1"
	for k := 0; k < depth; k++ {
		c = "{" + c + "{1'b1}}"
	}
	return "module m(input a, output reg y);\nalways @(*) if (" + c + ") y = a; else y = 1'b0;\nendmodule\n"
}

// TestNestedCountsLinear lints the 30-deep nested count. Each count is
// evaluated once per node, so this takes well under a second and a few
// megabytes; evaluating a count again for its value after sizing it
// would double the work per level.
func TestNestedCountsLinear(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	if _, err := vstatic.AnalyzeSource(nestedCountChecker(30), "m"); err != nil {
		t.Fatal(err)
	}
	took := time.Since(start)
	runtime.ReadMemStats(&after)
	if alloc := after.TotalAlloc - before.TotalAlloc; took >= 500*time.Millisecond || alloc >= 16<<20 {
		t.Errorf("AnalyzeSource took %v and allocated %d bytes, want under 500ms and 16 MB", took, alloc)
	}
}
