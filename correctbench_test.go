package correctbench

import (
	"context"
	"strings"
	"testing"

	"correctbench/internal/testbench"
	"correctbench/internal/verilog"
)

func TestProblemsAndLookup(t *testing.T) {
	if len(Problems()) != 156 {
		t.Fatalf("problems = %d", len(Problems()))
	}
	if ProblemByName("shift18") == nil || ProblemByName("bogus") != nil {
		t.Error("lookup broken")
	}
}

func TestGenerateAndGrade(t *testing.T) {
	c := NewClient()
	ctx := context.Background()
	res, err := c.GenerateTestbench(ctx, "adder4", TaskSpec{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Testbench == nil || res.TokensIn == 0 {
		t.Fatal("incomplete result")
	}
	g, err := c.Grade(ctx, res.Testbench, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g < Eval0 {
		t.Errorf("grade = %s", g)
	}
}

func TestNewProblemAndRun(t *testing.T) {
	src := `module xor3(
    input a,
    input b,
    input c,
    output y
);
    assign y = a ^ b ^ c;
endmodule
`
	p, err := NewProblem("xor3", "CMB", "A 3-input XOR gate: output y is the XOR of inputs a, b and c.", src, "", 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := NewClient().GenerateTestbenchFor(context.Background(), p, TaskSpec{Seed: 2, MaxReboots: Int(3)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Testbench.Problem.Name != "xor3" {
		t.Error("wrong problem attached")
	}
	if _, err := NewProblem("bad", "CMB", "spec", "module bad(", "", 1); err == nil {
		t.Error("invalid golden source accepted")
	}
	if _, err := NewProblem("bad", "XYZ", "spec", src, "", 1); err == nil {
		t.Error("invalid kind accepted")
	}
}

// TestNewProblemRejectsClockOrResetThatIsNoInput pins NewProblem's
// port checks. The reset is written into every emitted driver as a
// signal name, so a name that is not an input port of the golden top
// is an error, and an accepted one yields a driver that parses. The
// driver and the simulator clock clk, so a SEQ golden without a clk
// input is an error too.
func TestNewProblemRejectsClockOrResetThatIsNoInput(t *testing.T) {
	src := `module tff(
    input clk,
    input rst,
    input t,
    output reg q
);
    always @(posedge clk) begin
        if (rst) q <= 1'b0;
        else if (t) q <= ~q;
    end
endmodule
`
	for _, reset := range []string{"r st", "rst;\nendmodule", "nope", "q"} {
		if _, err := NewProblem("tff", "SEQ", "A toggle flip-flop.", src, reset, 1); err == nil {
			t.Errorf("reset %q accepted", reset)
		}
	}
	noClk := `module m(input c, input rst, input d, output reg q);
    always @(posedge c) if (rst) q <= 1'b0; else q <= d;
endmodule
`
	if _, err := NewProblem("m", "SEQ", "A D flip-flop clocked by c.", noClk, "rst", 1); err == nil {
		t.Error("SEQ golden without a clk input accepted")
	}
	for _, reset := range []string{"rst", ""} {
		p, err := NewProblem("tff", "SEQ", "A toggle flip-flop.", src, reset, 1)
		if err != nil {
			t.Fatalf("reset %q: %v", reset, err)
		}
		tb := &Testbench{Problem: p, Scenarios: []testbench.Scenario{{Index: 1, Name: "toggle", Steps: []testbench.Step{
			{Inputs: map[string]uint64{"t": 1}},
		}}}, CheckerSource: src, CheckerTop: "tff", CheckerSticky: -1}
		tb.DriverSource = testbench.EmitDriver(tb)
		if _, err := verilog.Parse(tb.DriverSource); err != nil {
			t.Errorf("reset %q: emitted driver does not parse: %v\n%s", reset, err, tb.DriverSource)
		}
	}
}

func TestRunExperimentSubset(t *testing.T) {
	ctx := context.Background()
	job, err := NewClient().Submit(ctx, ExperimentSpec{
		Seed: 4, Reps: 1,
		Problems: []string{"mux2_w4", "cnt4", "halfadd", "dff"},
	})
	if err != nil {
		t.Fatal(err)
	}
	exp, err := job.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	out := exp.Table1()
	if !strings.Contains(out, "CorrectBench") {
		t.Error("table missing method")
	}
}

func TestNameLists(t *testing.T) {
	if len(LLMNames()) != 3 || len(CriterionNames()) != 3 {
		t.Errorf("lists wrong: %v %v", LLMNames(), CriterionNames())
	}
}
