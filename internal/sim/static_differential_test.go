package sim_test

// Differential tests tying the two static-classification fronts
// together: the module-level lint (vstatic.AnalyzeModule over raw
// source) and the engine itself (the levelized flag of the program
// CompileBatch builds for a design alone). The run-once levelized
// schedule is only sound if these agree, so any widening of one front
// must be proven on the other — across every dataset problem and a
// seeded mutant sweep.

import (
	"context"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"correctbench/internal/dataset"
	"correctbench/internal/mutate"
	"correctbench/internal/sim"
	"correctbench/internal/verilog"
	"correctbench/internal/vstatic"
)

// classifyModule runs the module-level analysis on src/top.
func classifyModule(t *testing.T, src, top string) *vstatic.Result {
	t.Helper()
	rs, err := vstatic.AnalyzeSource(src, top)
	if err != nil {
		t.Fatalf("AnalyzeSource: %v", err)
	}
	return rs[0]
}

// levelized reports whether d alone runs on the levelized schedule.
func levelized(d *sim.Design) bool {
	return sim.CompileBatch(d, []*sim.Design{d})[0].Levelized()
}

// TestStaticClassificationAgreesOnUnfoldedBodies: a body whose width
// depends on a signal value, that holds a value wider than 64 bits, or
// that calls a display task, $finish, or waits on a delay runs on the
// interpreter's rules, so the engine runs its design event-driven, and
// the lint says so too. A part-select bound is folded, not compiled, so
// a wide bound still levelizes; a wide index does not. A no-op task
// ($dumpvars) folds.
func TestStaticClassificationAgreesOnUnfoldedBodies(t *testing.T) {
	const ports = "module m(input [3:0] a, input [1:0] s, output reg [3:0] y);\n"
	const seqPorts = "module m(input clk, input [3:0] a, output reg [3:0] y);\n"
	for _, tc := range []struct {
		src  string
		want bool
	}{
		{ports + "  always @(*) y = a[s:0];\nendmodule\n", false},
		{"module m(input [3:0] a, input [1:0] s, output [3:0] y);\n  assign y = {s{a[0]}};\nendmodule\n", false},
		{ports + "  always @(*) if (a[s:0] == 0) y = a; else y = 4'd0;\nendmodule\n", false},
		{ports + "  always @(*) y = {a, 64'd0, a} >> 68;\nendmodule\n", false},
		{ports + "  reg [71:0] w;\n  always @(*) w = {68'd0, a};\n  always @(*) y = a;\nendmodule\n", false},
		{ports + "  always @(*) y = a[72'd3];\nendmodule\n", false},
		{ports + "  always @(*) y = a[72'd3:0];\nendmodule\n", true},
		{ports + "  always @(*) begin y = a; $display(\"%d\", a); end\nendmodule\n", false},
		{seqPorts + "  always @(posedge clk) begin y <= a; if (a == 4'd3) $finish; end\nendmodule\n", false},
		{seqPorts + "  always @(posedge clk) begin y <= a; $display(\"x\"); end\nendmodule\n", false},
		{seqPorts + "  always @(posedge clk) #1 y <= a;\nendmodule\n", false},
		{ports + "  always @(*) begin y = a; $dumpvars; end\nendmodule\n", true},
	} {
		mr := classifyModule(t, tc.src, "m")
		d, err := sim.ElaborateSourceContext(context.Background(), tc.src, "m")
		if err != nil {
			t.Fatalf("elaborate %q: %v", tc.src, err)
		}
		if lev := levelized(d); mr.Levelizable != lev || lev != tc.want {
			t.Errorf("%q: lint levelizable=%v, engine levelized=%v; want both %v", tc.src, mr.Levelizable, lev, tc.want)
		}
	}
}

// TestNestedCountsCompileLinear compiles `if (C_30)`, where C_0 = 1'b1
// and C_k = {C_(k-1){1'b1}}: the compiler sizes every node, and each
// count is evaluated once per node, so this takes well under a second
// and a few megabytes instead of doubling per level.
func TestNestedCountsCompileLinear(t *testing.T) {
	c := "1'b1"
	for k := 0; k < 30; k++ {
		c = "{" + c + "{1'b1}}"
	}
	src := "module m(input a, output reg y);\nalways @(*) if (" + c + ") y = a; else y = 1'b0;\nendmodule\n"
	d, err := sim.ElaborateSourceContext(context.Background(), src, "m")
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	progs := sim.CompileBatch(d, []*sim.Design{d})
	took := time.Since(start)
	runtime.ReadMemStats(&after)
	if alloc := after.TotalAlloc - before.TotalAlloc; took >= 500*time.Millisecond || alloc >= 16<<20 {
		t.Errorf("CompileBatch took %v and allocated %d bytes, want under 500ms and 16 MB", took, alloc)
	}
	if len(progs) != 1 || progs[0].Interpreted() {
		t.Errorf("the nested count does not fold: %d programs", len(progs))
	}
}

func TestStaticClassificationAgreesOnAllGoldens(t *testing.T) {
	lev := 0
	for _, p := range dataset.All() {
		mr := classifyModule(t, p.Source, p.Top)
		d, err := p.Elaborate()
		if err != nil {
			t.Fatalf("%s: elaborate: %v", p.Name, err)
		}
		prog := sim.CompileBatch(d, []*sim.Design{d})[0]
		if prog.Interpreted() {
			t.Errorf("%s: some body runs on the interpreter's rules, want every body folded", p.Name)
		}
		lev1 := prog.Levelized()
		if mr.Levelizable != lev1 {
			t.Errorf("%s: module lint says levelizable=%v, engine levelized=%v", p.Name, mr.Levelizable, lev1)
		}
		if lev1 {
			lev++
		}
	}
	// The bit-granular definite-assignment analysis covers the whole
	// dataset; a regression here silently slows the batch engine.
	if total := len(dataset.All()); lev != total {
		t.Errorf("levelized coverage %d/%d, want full coverage", lev, total)
	}
}

func TestStaticClassificationAgreesOnMutants(t *testing.T) {
	rng := rand.New(rand.NewSource(20250807))
	checked := 0
	for _, p := range dataset.All() {
		f, err := verilog.Parse(p.Source)
		if err != nil {
			t.Fatalf("%s: parse: %v", p.Name, err)
		}
		golden := f.Module(p.Top)
		for i := 0; i < 3; i++ {
			mut, applied, _ := mutate.Mutate(golden, rng, 1)
			if len(applied) == 0 {
				break
			}
			src := verilog.PrintModule(mut)
			d, err := sim.ElaborateSourceContext(context.Background(), src, p.Top)
			if err != nil {
				// Mutants the engine rejects are outside the contract.
				continue
			}
			mr := classifyModule(t, src, p.Top)
			if lev := levelized(d); mr.Levelizable != lev {
				t.Errorf("%s mutant %d: module lint levelizable=%v, engine levelized=%v\n%s",
					p.Name, i, mr.Levelizable, lev, src)
			}
			checked++
		}
	}
	if checked < 300 {
		t.Fatalf("mutant sweep too thin: only %d mutants checked", checked)
	}
}

// TestConstCondLintMatchesEngine: for an if whose condition folds to a
// constant, the lint's const-cond verdict names the branch an Instance
// takes. The conditions mix operand widths under comparisons (whose
// operands the engine evaluates self-determined) and fold <<< and **.
func TestConstCondLintMatchesEngine(t *testing.T) {
	for _, cond := range []string{
		"4'd15 + 4'd1 == 5'd16",
		"4'd15 + 4'd1 == 4'd0",
		"(2'd3 << 1) > 3'd2",
		"2'd3 ** 2'd2 == 4'd9",
		"4'b1000 <<< 1 == 4'd0",
		"!(3'd7 + 3'd1)",
		"-4'd1 > 4'd14",
		"2'b10 == 2'b10 ? 1'b1 : 1'b0",
		"4'd3 > 4'd5 ? 1'b1 : 1'b0",
	} {
		src := "module m(input a, output reg y);\n    always @(*) if (" + cond + ") y = a; else y = ~a;\nendmodule\n"
		d, err := sim.ElaborateSourceContext(context.Background(), src, "m")
		if err != nil {
			t.Fatalf("%s: %v", cond, err)
		}
		in := sim.NewInstance(d)
		if err := in.SetInputUint("a", 1); err != nil {
			t.Fatal(err)
		}
		engineThen := in.MustGet("y").String() == "1"
		verdict := ""
		for _, dg := range classifyModule(t, src, "m").Diags {
			if dg.Code == vstatic.CodeConstCond {
				verdict = dg.Msg
			}
		}
		switch {
		case verdict == "":
			t.Errorf("%s: the lint finds no constant condition", cond)
		case strings.Contains(verdict, "constantly true") != engineThen:
			t.Errorf("%s: lint says %q, but the engine takes the then branch: %v", cond, verdict, engineThen)
		}
	}
}

// TestHostileWidthsAllocateLittle: a width past the engine's 4,096-bit
// cap is not static, for the lint and for the levelizer's purity
// analysis alike, so neither sizes it. {1048576{{1048576{1'b1}}}} +
// 1'b1 is 2^40 bits wide; folding it at that width, as an index or as
// a condition, would allocate about 256 GB.
func TestHostileWidthsAllocateLittle(t *testing.T) {
	const bound = 16 << 20
	allocs := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	for _, src := range []string{
		"module m(input [3:0] a, output y);\n    assign y = a[{1048576{{1048576{1'b1}}}} + 1'b1];\nendmodule\n",
		"module m(input a, output reg y);\n    always @(*) if ({1048576{{1048576{1'b1}}}} + 1'b1) y = a; else y = 1'b0;\nendmodule\n",
	} {
		if n := allocs(func() { classifyModule(t, src, "m") }); n > bound {
			t.Errorf("lint allocates %d bytes, want at most %d:\n%s", n, bound, src)
		}
		d, err := sim.ElaborateSourceContext(context.Background(), src, "m")
		if err != nil {
			t.Fatalf("%v\n%s", err, src)
		}
		if n := allocs(func() { sim.CompileBatch(d, []*sim.Design{d}) }); n > bound {
			t.Errorf("CompileBatch allocates %d bytes, want at most %d:\n%s", n, bound, src)
		}
	}
}
