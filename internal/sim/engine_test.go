package sim

import (
	"math/rand"
	"testing"

	"correctbench/internal/logic"
)

// Every single-DUT simulation runs as a one-lane batch program, which
// must be bit-for-bit interchangeable with the AST interpreter. These
// micro-differential tests drive the same design as one lane and on an
// interpreter Instance with identical stimuli and compare every signal
// after every event, covering the constructs the batch compiler
// handles specially (width contexts, constant folding, lvalue spans,
// NBA ordering, loops, case variants, X-propagation).
// FuzzBatchLaneMatchesInterp extends the same check to the dataset's
// goldens and their mutants.

var engineDiffModules = []struct {
	name, src, top string
	clock          string // "" = combinational
}{
	{
		name: "widths_and_concat",
		src: `
module m(input [7:0] a, input [7:0] b, input sel, output [8:0] s, output [3:0] hi, output [15:0] cat);
    assign s = a + b;
    assign hi = a[7:4];
    assign cat = {a, b};
endmodule`,
		top: "m",
	},
	{
		name: "ternary_reduction_shift",
		src: `
module m(input [7:0] a, input [2:0] n, input sel, output [7:0] y, output r, output [7:0] sh);
    assign y = sel ? (a << 1) : (a >> 1);
    assign r = ^a & |a;
    assign sh = a >> n;
endmodule`,
		top: "m",
	},
	{
		name: "case_variants",
		src: `
module m(input [1:0] s, input [3:0] a, output reg [3:0] y);
    always @(*) begin
        casez (s)
            2'b0?: y = a;
            2'b10: y = ~a;
            default: y = 4'b0;
        endcase
    end
endmodule`,
		top: "m",
	},
	{
		name: "for_loop_partselect",
		src: `
module m(input [7:0] a, output reg [7:0] y);
    integer i;
    always @(*) begin
        y = 8'd0;
        for (i = 0; i < 8; i = i + 1)
            y[i] = a[7 - i];
    end
endmodule`,
		top: "m",
	},
	{
		name: "seq_nba_and_blocking",
		src: `
module m(input clk, input rst, input [3:0] d, output reg [3:0] q1, output reg [3:0] q2, output reg [3:0] acc);
    always @(posedge clk or posedge rst) begin
        if (rst) begin
            q1 <= 4'd0; q2 <= 4'd0; acc <= 4'd0;
        end else begin
            q1 <= d;
            q2 <= q1;
            acc = acc + d;
        end
    end
endmodule`,
		top:   "m",
		clock: "clk",
	},
	{
		name: "hierarchy_params",
		src: `
module add #(parameter W = 4) (input [W-1:0] x, input [W-1:0] y, output [W:0] z);
    assign z = x + y;
endmodule
module m(input [5:0] a, input [5:0] b, output [6:0] s);
    add #(.W(6)) u (.x(a), .y(b), .z(s));
endmodule`,
		top: "m",
	},
	{
		name: "concat_lvalue_swap",
		src: `
module m(input clk, input [3:0] d, output reg [1:0] hi, output reg [1:0] lo);
    always @(posedge clk)
        {hi, lo} <= {d[1:0], d[3:2]};
endmodule`,
		top:   "m",
		clock: "clk",
	},
}

// snapshot renders every signal of the design, the full visible state.
func snapshot(t *testing.T, in *Instance) string {
	t.Helper()
	out := ""
	for _, name := range in.Design().Order {
		v, err := in.Get(name)
		if err != nil {
			t.Fatalf("get %s: %v", name, err)
		}
		out += name + "=" + v.String() + "\n"
	}
	return out
}

// oneLane pairs a one-lane batch instance with an interpreter Instance
// of the same design and compares their full state after each step.
type oneLane struct {
	t  *testing.T
	b  *BatchInstance
	in *Instance
}

func newOneLane(t *testing.T, d *Design) *oneLane {
	t.Helper()
	progs := CompileBatch(d, []*Design{d})
	if len(progs) != 1 || progs[0].Lanes() != 1 {
		t.Fatalf("design alone compiles to %d programs, want one of one lane", len(progs))
	}
	return &oneLane{t: t, b: NewBatchInstance(progs[0]), in: NewInstance(d)}
}

func (o *oneLane) step(label string, bf func(b *BatchInstance) error, sf func(in *Instance) error) {
	o.t.Helper()
	if err := bf(o.b); err != nil {
		o.t.Fatalf("%s (batch): %v", label, err)
	}
	if err := o.b.LaneErr(0); err != nil {
		o.t.Fatalf("%s (batch lane): %v", label, err)
	}
	if err := sf(o.in); err != nil {
		o.t.Fatalf("%s (interp): %v", label, err)
	}
	if bs, is := batchSnapshot(o.t, o.b, 0), snapshot(o.t, o.in); bs != is {
		o.t.Fatalf("%s: engines diverge\nbatch:\n%s\ninterp:\n%s", label, bs, is)
	}
}

func TestEngineDifferentialMicro(t *testing.T) {
	for _, tc := range engineDiffModules {
		t.Run(tc.name, func(t *testing.T) {
			d := mustElab(t, tc.src, tc.top)
			o := newOneLane(t, d)
			rng := rand.New(rand.NewSource(99))

			var inputs []Port
			for _, p := range d.Ports {
				if p.Dir != Out && p.Name != tc.clock {
					inputs = append(inputs, p)
				}
			}
			o.step("zero", (*BatchInstance).ZeroInputs, (*Instance).ZeroInputs)
			for i := 0; i < 40; i++ {
				for _, p := range inputs {
					v := rng.Uint64()
					o.step(p.Name,
						func(b *BatchInstance) error { return b.SetInputUint(p.Name, v) },
						func(in *Instance) error { return in.SetInputUint(p.Name, v) })
				}
				if tc.clock != "" {
					o.step("tick",
						func(b *BatchInstance) error { return b.Tick(tc.clock) },
						func(in *Instance) error { return in.Tick(tc.clock) })
				} else {
					o.step("settle", (*BatchInstance).Settle, (*Instance).Settle)
				}
			}
		})
	}
}

// TestEngineDifferentialXInputs drives X/Z values through the
// combinational designs on both engines.
func TestEngineDifferentialXInputs(t *testing.T) {
	for _, tc := range engineDiffModules {
		if tc.clock != "" {
			continue
		}
		t.Run(tc.name, func(t *testing.T) {
			d := mustElab(t, tc.src, tc.top)
			o := newOneLane(t, d)
			rng := rand.New(rand.NewSource(7))
			for i := 0; i < 60; i++ {
				for _, p := range d.Ports {
					if p.Dir == Out {
						continue
					}
					v := logic.New(p.Width)
					for b := 0; b < p.Width; b++ {
						v.SetBit(b, logic.Bit(rng.Intn(4)))
					}
					o.step(p.Name,
						func(b *BatchInstance) error { return b.SetInput(p.Name, v) },
						func(in *Instance) error { return in.SetInput(p.Name, v) })
				}
			}
		})
	}
}

// TestInstanceResetEqualsFresh pins the pooling contract: a Reset
// instance is indistinguishable from a new one.
func TestInstanceResetEqualsFresh(t *testing.T) {
	src := engineDiffModules[4] // seq_nba_and_blocking
	d := mustElab(t, src.src, src.top)
	pooled := NewInstance(d)

	run := func(in *Instance, seed int64) string {
		rng := rand.New(rand.NewSource(seed))
		if err := in.ZeroInputs(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			if err := in.SetInputUint("d", rng.Uint64()); err != nil {
				t.Fatal(err)
			}
			if err := in.Tick("clk"); err != nil {
				t.Fatal(err)
			}
		}
		return snapshot(t, in)
	}

	first := run(pooled, 5)
	pooled.Reset()
	if got := snapshot(t, NewInstance(d)); got != snapshot(t, pooled) {
		t.Fatalf("reset state differs from fresh state:\n%s\nvs\n%s", snapshot(t, pooled), got)
	}
	second := run(pooled, 5)
	if first != second {
		t.Fatalf("pooled rerun diverges:\n%s\nvs\n%s", first, second)
	}
	fresh := run(NewInstance(d), 5)
	if fresh != second {
		t.Fatalf("pooled vs fresh diverge:\n%s\nvs\n%s", second, fresh)
	}
}

// TestCompiledCoverage asserts the batch compiler folds every process
// of the micro corpus into closures in a one-lane program (no body
// left to the interpreter's rules hiding coverage).
func TestCompiledCoverage(t *testing.T) {
	for _, tc := range engineDiffModules {
		d := mustElab(t, tc.src, tc.top)
		if oneProgram(d, d).Interpreted() {
			t.Errorf("%s: a body runs on the interpreter's rules", tc.name)
		}
	}
}
