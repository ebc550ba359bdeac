package sim

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"

	"correctbench/internal/logic"
)

// The batch engine must be bit-for-bit identical, lane by lane, to an
// interpreter instance of the same design. These tests replay
// the micro-differential suite through BatchInstance, then cover the
// batch-specific machinery: patch tables for mutated variants, the
// levelized/event-driven mode split, per-lane bootstrap, per-lane
// failure isolation, and variant rejection.

// batchSnapshot renders every signal of one lane.
func batchSnapshot(t *testing.T, b *BatchInstance, lane int) string {
	t.Helper()
	out := ""
	for _, name := range b.prog.base.Order {
		v, err := b.Get(name, lane)
		if err != nil {
			t.Fatalf("get %s: %v", name, err)
		}
		out += name + "=" + v.String() + "\n"
	}
	return out
}

// batchExtraModules exercise constructs with batch-specific handling
// on top of the shared engineDiffModules suite.
var batchExtraModules = []struct {
	name, src, top string
	clock          string
	wantLevelized  bool
}{
	{
		// Single-assignment shapes on the levelized schedule: copy,
		// not, and/or/xor/xnor, constant.
		name: "kernel_shapes",
		src: `
module m(input [7:0] a, input [7:0] b, output [7:0] w, output [7:0] x, output [7:0] y, output [7:0] z, output [7:0] k, output [7:0] c);
    assign w = a & b;
    assign x = a | b;
    assign y = a ^ b;
    assign z = ~a;
    assign k = 8'h5a;
    assign c = b;
endmodule`,
		top:           "m",
		wantLevelized: true,
	},
	{
		// Wide (>64 bit) vectors live beside the word planes; their
		// bodies run on the interpreter's rules, so the program runs
		// event-driven.
		name: "wide_vectors",
		src: `
module m(input [99:0] a, input [99:0] b, output [99:0] y, output [99:0] z, output [49:0] hi);
    assign y = a & b;
    assign z = a + b;
    assign hi = a[99:50];
endmodule`,
		top:           "m",
		wantLevelized: false,
	},
	{
		// Multi-level comb chain: levelized order must follow the data
		// flow regardless of process declaration order.
		name: "comb_chain",
		src: `
module m(input [3:0] a, input [3:0] b, output [3:0] r);
    wire [3:0] s1, s2;
    assign r = s2 + 4'd1;
    assign s2 = s1 & b;
    assign s1 = a | b;
endmodule`,
		top:           "m",
		wantLevelized: true,
	},
	{
		// A latch (read of own target without prior assignment) is not
		// static: the batch must fall back to event-driven mode and
		// still match the interpreter.
		name: "latch_fallback",
		src: `
module m(input en, input [3:0] d, output reg [3:0] q);
    always @(*)
        if (en) q = d;
endmodule`,
		top:           "m",
		wantLevelized: false,
	},
	{
		// Combinational feedback cycle: settles trivially (both X) but
		// is unschedulable statically.
		name: "cycle_fallback",
		src: `
module m(input [3:0] d, output [3:0] a, output [3:0] b);
    assign a = b;
    assign b = a;
endmodule`,
		top:           "m",
		wantLevelized: false,
	},
	{
		// Nonblocking assignment from a combinational process: queued
		// at settle time, applied only when an edge wave runs. The NBA
		// queue surviving a no-edge propagate is part of the contract.
		name: "comb_nba",
		src: `
module m(input clk, input [3:0] d, output reg [3:0] p, output reg [3:0] q);
    always @(*) p <= d;
    always @(posedge clk) q <= d;
endmodule`,
		top:           "m",
		clock:         "clk",
		wantLevelized: true,
	},
	{
		// Sequential process with blocking partial writes: seq bodies
		// need no purity, only comb processes are levelized.
		name: "seq_partial_writes",
		src: `
module m(input clk, input rst, input [7:0] d, output reg [7:0] q);
    always @(posedge clk or posedge rst) begin
        if (rst) q <= 8'd0;
        else begin
            q[3:0] <= d[7:4];
            q[7:4] <= d[3:0];
        end
    end
endmodule`,
		top:           "m",
		clock:         "clk",
		wantLevelized: true,
	},
	{
		// Concatenation and replication on both sides of the one-word
		// result: a narrow concat is folded pairwise, a wider one
		// (72, 96 bits) runs on the interpreter's rules; each in a wider
		// and a narrower context.
		name: "concat_repl_widths",
		src: `
module m(input [3:0] a, input [6:0] b, input c, input [31:0] w,
         output [11:0] y, output [15:0] z, output [5:0] t, output [63:0] full,
         output [71:0] big, output [19:0] r, output [95:0] rw);
    assign y = {a, b, c};
    assign z = {a, b, c};
    assign t = {a, b, c};
    assign full = {w, w};
    assign big = {w, w, a, a};
    assign r = {{2{a}}, {3{c}}, {3{b[1:0]}}};
    assign rw = {3{w}};
endmodule`,
		top:           "m",
		wantLevelized: false,
	},
	{
		// Where folded word bodies meet bodies with wide values, which
		// run on the interpreter's rules: wide slots written whole, by
		// bit and by part-select, blocking and nonblocking; an edge on a
		// wide signal; a case on a wide selector; narrow results of wide
		// comparisons, selects and shift amounts; a narrow concatenation
		// target fed from a wide value and a wide one split into narrow
		// targets.
		name: "word_vector_edges",
		src: `
module m(input clk, input [3:0] a, input [71:0] d,
         output reg [71:0] q, output reg [7:0] n, output [79:0] cat,
         output [3:0] lo4, output hit, output reg [7:0] sel, output [7:0] sh,
         output [63:0] w64, output [11:0] w12);
    always @(posedge clk) begin
        q <= d;
        q[70] <= a[0];
        q[a] <= a[1];
        q[69:66] <= a;
        n <= d[71:64] + a;
    end
    always @(posedge q) n[7] <= ~n[7];
    assign cat = {q, n};
    assign {lo4, hit} = {d[3:0], d == q};
    assign sh = (8'd1 << d) | (d > q ? 8'h80 : 8'h00) | (d[71] ? 8'h40 : 8'h00);
    assign {w64, w12} = {d, a};
    always @(*)
        case (d)
            72'd0: sel = 8'd1;
            {8'hff, 64'd0}: sel = 8'd2;
            default: sel = q[71:64] ^ n;
        endcase
endmodule`,
		top:           "m",
		clock:         "clk",
		wantLevelized: false,
	},
	{
		// Constant-only process: runs solely via the bootstrap pass.
		name: "constant_bootstrap",
		src: `
module m(input [3:0] a, output reg [3:0] k, output [3:0] y);
    always @(*) k = 4'd5;
    assign y = a + 4'd1;
endmodule`,
		top:           "m",
		wantLevelized: true,
	},
	{
		// Branches on literal-only bit-selects, part-selects and
		// ternaries (elaboration inlines P) fold in the purity
		// analysis: the missing else branches are dead, so no latch is
		// inferred and the region is levelized.
		name: "literal_branches",
		src: `
module m(input [3:0] a, input [3:0] b, output reg [3:0] y, output reg [3:0] z);
    localparam P = 2'b10;
    always @(*)
        if (P[1]) y = a & b;
    always @(*)
        if (P == 2'b10 ? 1'b1 : 1'b0) z = a[P[1:0]] ? b : ~b;
endmodule`,
		top:           "m",
		wantLevelized: true,
	},
}

func TestBatchDifferentialMicro(t *testing.T) {
	type diffCase struct {
		name, src, top, clock string
	}
	var cases []diffCase
	for _, tc := range engineDiffModules {
		cases = append(cases, diffCase{tc.name, tc.src, tc.top, tc.clock})
	}
	for _, tc := range batchExtraModules {
		cases = append(cases, diffCase{tc.name, tc.src, tc.top, tc.clock})
	}
	const lanes = 3
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := mustElab(t, tc.src, tc.top)
			variants := make([]*Design, lanes)
			refs := make([]*Instance, lanes)
			for i := range variants {
				// Separate elaborations: distinct ASTs, identical bodies.
				variants[i] = mustElab(t, tc.src, tc.top)
				refs[i] = NewInstance(variants[i])
			}
			progs := CompileBatch(d, variants)
			if len(progs) != 1 || progs[0].Lanes() != lanes {
				t.Fatalf("%d programs, want one of %d lanes", len(progs), lanes)
			}
			b := NewBatchInstance(progs[0])
			rng := rand.New(rand.NewSource(99))

			step := func(label string, bf func() error, sf func(in *Instance) error) {
				if err := bf(); err != nil {
					t.Fatalf("%s (batch): %v", label, err)
				}
				for lane, ref := range refs {
					if err := sf(ref); err != nil {
						t.Fatalf("%s (interp lane %d): %v", label, lane, err)
					}
					if le := b.LaneErr(lane); le != nil {
						t.Fatalf("%s: batch lane %d failed: %v", label, lane, le)
					}
					bs, ss := batchSnapshot(t, b, lane), snapshot(t, ref)
					if bs != ss {
						t.Fatalf("%s: lane %d diverges\nbatch:\n%s\ninterp:\n%s", label, lane, bs, ss)
					}
				}
			}

			step("zero", b.ZeroInputs, func(in *Instance) error { return in.ZeroInputs() })
			var inputs []Port
			for _, p := range d.Ports {
				if p.Dir != Out && p.Name != tc.clock {
					inputs = append(inputs, p)
				}
			}
			for i := 0; i < 30; i++ {
				for _, p := range inputs {
					p := p
					// Mix defined and X/Z stimulus.
					v := logic.New(p.Width)
					if i%3 == 0 {
						for bit := 0; bit < p.Width; bit++ {
							v.SetBit(bit, logic.Bit(rng.Intn(4)))
						}
					} else {
						v = logic.FromUint64(p.Width, rng.Uint64())
					}
					step(p.Name,
						func() error { return b.SetInput(p.Name, v) },
						func(in *Instance) error { return in.SetInput(p.Name, v) })
				}
				if tc.clock != "" {
					step("tick",
						func() error { return b.Tick(tc.clock) },
						func(in *Instance) error { return in.Tick(tc.clock) })
				} else {
					step("settle", b.Settle, func(in *Instance) error { return in.Settle() })
				}
			}
		})
	}
}

// TestBatchNarrowConcatAllocatesNothing pins that concatenation and
// replication whose result fits one word allocate nothing per
// evaluation: setting inputs and settling such a design is free of
// heap allocations.
func TestBatchNarrowConcatAllocatesNothing(t *testing.T) {
	src := `
module m(input [3:0] a, input [6:0] b, input c, output [11:0] y, output [15:0] r);
    assign y = {a, b, c};
    assign r = {{2{a}}, {3{c}}, b[4:0]};
endmodule`
	d := mustElab(t, src, "m")
	b := NewBatchInstance(oneProgram(d, d, mustElab(t, src, "m")))
	if err := b.ZeroInputs(); err != nil {
		t.Fatal(err)
	}
	i := uint64(0)
	var runErr error
	allocs := testing.AllocsPerRun(100, func() {
		i++
		for _, err := range []error{
			b.SetInput("a", logic.FromUint64(4, i)),
			b.SetInput("c", logic.FromUint64(1, i)),
			b.Settle(),
		} {
			if err != nil {
				runErr = err
			}
		}
	})
	if runErr != nil {
		t.Fatal(runErr)
	}
	if allocs != 0 {
		t.Errorf("narrow concatenation allocates %.1f times per settle, want 0", allocs)
	}
}

func TestBatchModeSelection(t *testing.T) {
	for _, tc := range batchExtraModules {
		t.Run(tc.name, func(t *testing.T) {
			d := mustElab(t, tc.src, tc.top)
			progs := CompileBatch(d, []*Design{mustElab(t, tc.src, tc.top)})
			if len(progs) != 1 {
				t.Fatalf("%d programs, want 1", len(progs))
			}
			if prog := progs[0]; prog.Levelized() != tc.wantLevelized {
				t.Errorf("levelized = %v, want %v", prog.Levelized(), tc.wantLevelized)
			}
		})
	}
}

// TestBatchMutantPatches batches hand-written "mutants" against their
// base design and checks each lane tracks an interpreter run of
// the corresponding variant.
func TestBatchMutantPatches(t *testing.T) {
	cases := []struct {
		name  string
		base  string
		vars  []string
		top   string
		clock string
	}{
		{
			name: "comb_op_mutants",
			base: `
module m(input [3:0] a, input [3:0] b, output [3:0] y, output [3:0] z);
    assign y = a & b;
    assign z = a | b;
endmodule`,
			vars: []string{`
module m(input [3:0] a, input [3:0] b, output [3:0] y, output [3:0] z);
    assign y = a | b;
    assign z = a | b;
endmodule`, `
module m(input [3:0] a, input [3:0] b, output [3:0] y, output [3:0] z);
    assign y = a & b;
    assign z = a ^ b;
endmodule`, `
module m(input [3:0] a, input [3:0] b, output [3:0] y, output [3:0] z);
    assign y = ~(a & b);
    assign z = a | ~b;
endmodule`},
			top: "m",
		},
		{
			name: "seq_mutants",
			base: `
module c(input clk, input rst, input [3:0] d, output reg [3:0] q);
    always @(posedge clk or posedge rst)
        if (rst) q <= 4'd0;
        else q <= q + d;
endmodule`,
			vars: []string{`
module c(input clk, input rst, input [3:0] d, output reg [3:0] q);
    always @(posedge clk or posedge rst)
        if (rst) q <= 4'd0;
        else q <= q - d;
endmodule`, `
module c(input clk, input rst, input [3:0] d, output reg [3:0] q);
    always @(posedge clk or posedge rst)
        if (rst) q <= 4'd1;
        else q <= q + d;
endmodule`},
			top:   "c",
			clock: "clk",
		},
		{
			// Base is a latch -> event-driven mode with patches.
			name: "latch_mutants",
			base: `
module m(input en, input [3:0] d, output reg [3:0] q);
    always @(*)
        if (en) q = d;
endmodule`,
			vars: []string{`
module m(input en, input [3:0] d, output reg [3:0] q);
    always @(*)
        if (en) q = ~d;
endmodule`},
			top: "m",
		},
		{
			// A mutated sensitivity list: the patched process carries
			// the variant's own @* read set.
			name: "sens_change_mutant",
			base: `
module m(input [3:0] a, input [3:0] b, input sel, output reg [3:0] y);
    always @(*)
        y = sel ? a : b;
endmodule`,
			vars: []string{`
module m(input [3:0] a, input [3:0] b, input sel, output reg [3:0] y);
    always @(*)
        y = a;
endmodule`},
			top: "m",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := mustElab(t, tc.base, tc.top)
			variants := make([]*Design, len(tc.vars))
			refs := make([]*Instance, len(tc.vars))
			for i, src := range tc.vars {
				variants[i] = mustElab(t, src, tc.top)
				refs[i] = NewInstance(variants[i])
			}
			b := NewBatchInstance(oneProgram(base, variants...))
			rng := rand.New(rand.NewSource(1))

			check := func(label string) {
				for lane, ref := range refs {
					if le := b.LaneErr(lane); le != nil {
						t.Fatalf("%s: lane %d failed: %v", label, lane, le)
					}
					bs, ss := batchSnapshot(t, b, lane), snapshot(t, ref)
					if bs != ss {
						t.Fatalf("%s: lane %d diverges\nbatch:\n%s\ninterp:\n%s", label, lane, bs, ss)
					}
				}
			}
			if err := b.ZeroInputs(); err != nil {
				t.Fatal(err)
			}
			for _, ref := range refs {
				if err := ref.ZeroInputs(); err != nil {
					t.Fatal(err)
				}
			}
			check("zero")
			for i := 0; i < 50; i++ {
				for _, p := range base.Ports {
					if p.Dir == Out || p.Name == tc.clock {
						continue
					}
					v := logic.FromUint64(p.Width, rng.Uint64())
					if err := b.SetInput(p.Name, v); err != nil {
						t.Fatal(err)
					}
					for _, ref := range refs {
						if err := ref.SetInput(p.Name, v); err != nil {
							t.Fatal(err)
						}
					}
				}
				if tc.clock != "" {
					if err := b.Tick(tc.clock); err != nil {
						t.Fatal(err)
					}
					for _, ref := range refs {
						if err := ref.Tick(tc.clock); err != nil {
							t.Fatal(err)
						}
					}
				}
				check("step")
			}
		})
	}
}

// oneProgram compiles designs as the lanes of one program over base,
// without CompileBatch's static split; each must share base's layout.
func oneProgram(base *Design, designs ...*Design) *BatchProgram {
	p, _ := compileBatch(base, designs, false)
	return p
}

// TestCompileBatchPlacement pins where CompileBatch puts each design:
// every design gets exactly one lane (two when listed twice), the
// static designs share a levelized program over base and a non-static
// one an event-driven program over base, a design whose layout differs
// gets a one-lane program over itself, and programs without lanes are
// left out.
func TestCompileBatchPlacement(t *testing.T) {
	const ports = "module m(input [3:0] a, output reg [3:0] y);\n"
	base := mustElab(t, ports+"    always @(*) y = a + 4'd1;\nendmodule", "m")
	good := mustElab(t, ports+"    always @(*) y = a + 4'd2;\nendmodule", "m")
	// y keeps its value when a[0] is 0: a latch, not provably static.
	latch := mustElab(t, ports+"    always @(*) if (a[0]) y = a;\nendmodule", "m")
	wrongWidth := mustElab(t, `
module m(input [7:0] a, output reg [7:0] y);
    always @(*) y = a + 8'd1;
endmodule`, "m")
	extraSignal := mustElab(t, ports+"    wire [3:0] t;\n    assign t = a ^ 4'd3;\n    always @(*) y = t + 4'd1;\nendmodule", "m")

	type want struct {
		base      *Design
		levelized bool
		lanes     []*Design
	}
	for _, tc := range []struct {
		name    string
		designs []*Design
		want    []want
	}{
		{"mixed", []*Design{wrongWidth, good, latch, extraSignal, good, base}, []want{
			{base, true, []*Design{good, good, base}},
			{base, false, []*Design{latch}},
			{wrongWidth, true, []*Design{wrongWidth}},
			{extraSignal, true, []*Design{extraSignal}},
		}},
		// The levelized program would have no lane.
		{"no_static", []*Design{latch}, []want{{base, false, []*Design{latch}}}},
		{"foreign_only", []*Design{wrongWidth}, []want{{wrongWidth, true, []*Design{wrongWidth}}}},
		{"empty", nil, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			progs := CompileBatch(base, tc.designs)
			if len(progs) != len(tc.want) {
				t.Fatalf("%d programs, want %d", len(progs), len(tc.want))
			}
			lanes := map[*Design]int{}
			for k, p := range progs {
				w := tc.want[k]
				if p.Base() != w.base || p.Levelized() != w.levelized || p.Lanes() != len(w.lanes) {
					t.Errorf("program %d: base %p levelized=%v lanes=%d, want %p %v %d", k, p.Base(), p.Levelized(), p.Lanes(), w.base, w.levelized, len(w.lanes))
					continue
				}
				for lane, d := range w.lanes {
					if p.LaneDesign(lane) != d {
						t.Errorf("program %d lane %d holds the wrong design", k, lane)
					}
					lanes[d]++
				}
			}
			listed := map[*Design]int{}
			for _, d := range tc.designs {
				listed[d]++
			}
			for i, d := range tc.designs {
				if lanes[d] != listed[d] {
					t.Errorf("design %d: %d lanes, listed %d times", i, lanes[d], listed[d])
				}
			}
		})
	}

	// The lanes run their own designs: y = a + 2, twice, then a + 1.
	b := NewBatchInstance(CompileBatch(base, []*Design{good, good, base})[0])
	if err := b.ZeroInputs(); err != nil {
		t.Fatal(err)
	}
	if err := b.SetInputUint("a", 3); err != nil {
		t.Fatal(err)
	}
	for lane, want := range []uint64{5, 5, 4} {
		v, err := b.Get("y", lane)
		if err != nil {
			t.Fatal(err)
		}
		if u, _ := v.Uint64(); u != want {
			t.Errorf("lane %d: y = %s, want %d", lane, v, want)
		}
	}
}

// TestBatchDisplayFallsBackWholesale is the differential for bodies the
// batch compiler leaves to the interpreter's rules (the name is from
// when such a design fell back to the interpreter wholesale): display tasks
// (arguments evaluated, text discarded), $finish/$stop in a sequential
// block, delay controls in always bodies, a string literal as a
// $display value, replications of count zero or of a signal value,
// part-selects whose bounds are signal values, read and written, and
// values wider than 64 bits, a shifted concatenation and a comparison
// of two. Each
// such design runs as the base of a two-lane program and as a patched
// lane beside a same-layout base whose bodies fold. The program must
// run event-driven, and every lane must equal an Instance of its design
// after every step: each signal, and each error, text included.
func TestBatchDisplayFallsBackWholesale(t *testing.T) {
	// Every body reads k = a ^ key, which differs between the lanes: key
	// is 0 in the static base, 5 in the design under test and 9 in its
	// second copy.
	cases := []struct {
		name, body, static string
		wantErr            bool // some lane errs
	}{
		{"display", `always @(*) begin y = k + 4'd1; $display("y=%d k=%b s=%h t=%t %0d%%", y, k, s, k); $write("w", k); $fdisplay(1, "f %d", s); end`,
			`always @(*) begin y = k + 4'd1; end`, false},
		{"finish_stop", `always @(posedge clk) begin y <= {s, k}; y[7] <= y[0]; if (k == 4'd3) $finish; if (s == 2'd1) $stop; end`,
			`always @(posedge clk) begin y <= {s, k}; y[7] <= y[0]; end`, false},
		{"delay_seq", `always @(posedge clk) begin y <= k; if (s == 2'd1) #1 y <= s; end`, `always @(posedge clk) begin y <= k; if (s == 2'd1) y <= s; end`, true},
		{"delay_comb", `always @(*) begin y = k; if (s == 2'd1) #2 y = s; end`, `always @(*) begin y = k; if (s == 2'd1) y = s; end`, true},
		{"string_value", `always @(*) begin y = k; if (s == 2'd3) $display("v", "text"); end`, `always @(*) begin y = k; end`, true},
		{"zero_replication", `always @(*) begin y = k; if (s == 2'd2) y = {0{k}}; end`,
			`always @(*) begin y = k; if (s == 2'd2) y = {2{k}}; end`, true},
		{"replication_count", `always @(*) y = {s{k}};`, `always @(*) y = {2{k}};`, true},
		{"part_select_bound", `always @(*) y = k[s:0] + k[3:s];`, `always @(*) y = k[2:0] + k[3:1];`, false},
		{"part_select_target", `always @(*) begin y = 8'd0; y[s+3'd4:s] = k; end`,
			`always @(*) begin y = 8'd0; y[5:1] = k; end`, false},
		{"wide_concat", `always @(*) y = {k, 64'd0, s} >> 66;`, `always @(*) y = {k, 2'd0, s} >> 4;`, false},
		{"wide_compare", `always @(*) y = {k, 64'd0, s} > {s, 64'd1, k} ? {4'd0, k} : {6'd0, s};`,
			`always @(*) y = {k, s} > {s, k} ? {4'd0, k} : {6'd0, s};`, false},
	}
	elab := func(t *testing.T, body string, key int) *Design {
		t.Helper()
		return mustElab(t, fmt.Sprintf("module m(input clk, input [3:0] a, input [1:0] s, output reg [7:0] y);\n    wire [3:0] k;\n    assign k = a ^ 4'd%d;\n    %s\nendmodule", key, body), "m")
	}
	// check drives prog's lanes and an Instance of each lane's design
	// (refs) through the same stimulus; it reports whether a lane erred.
	check := func(t *testing.T, prog *BatchProgram, refs []*Design) bool {
		t.Helper()
		if !prog.Interpreted() || prog.Levelized() || prog.Lanes() != len(refs) {
			t.Fatalf("interpreted=%v levelized=%v lanes=%d, want an event-driven interpreted program of %d lanes",
				prog.Interpreted(), prog.Levelized(), prog.Lanes(), len(refs))
		}
		b := NewBatchInstance(prog)
		ins := make([]*Instance, len(refs))
		for i, d := range refs {
			ins[i] = NewInstance(d)
		}
		dead := make([]bool, len(refs))
		erred := false
		step := func(label string, bf func() error, sf func(in *Instance) error) {
			t.Helper()
			if err := bf(); err != nil {
				t.Fatalf("%s (batch): %v", label, err)
			}
			for lane, in := range ins {
				if dead[lane] {
					continue
				}
				ierr, berr := sf(in), b.LaneErr(lane)
				if fmt.Sprint(berr) != fmt.Sprint(ierr) {
					t.Fatalf("%s: lane %d: batch err=%v, interp err=%v", label, lane, berr, ierr)
				}
				if ierr != nil {
					dead[lane], erred = true, true
					continue
				}
				if bs, ss := batchSnapshot(t, b, lane), snapshot(t, in); bs != ss {
					t.Fatalf("%s: lane %d diverges\nbatch:\n%s\ninterp:\n%s", label, lane, bs, ss)
				}
			}
		}
		step("zero", b.ZeroInputs, func(in *Instance) error { return in.ZeroInputs() })
		rng := rand.New(rand.NewSource(5))
		for i := 0; i < 40; i++ {
			for _, p := range []struct {
				name  string
				width int
			}{{"s", 2}, {"a", 4}} {
				v := logic.FromUint64(p.width, rng.Uint64())
				if i%4 == 0 {
					for bit := 0; bit < p.width; bit++ {
						v.SetBit(bit, logic.Bit(rng.Intn(4)))
					}
				}
				step(p.name,
					func() error { return b.SetInput(p.name, v) },
					func(in *Instance) error { return in.SetInput(p.name, v) })
			}
			step("tick", func() error { return b.Tick("clk") }, func(in *Instance) error { return in.Tick("clk") })
		}
		return erred
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dyn, dyn2, static := elab(t, tc.body, 5), elab(t, tc.body, 9), elab(t, tc.static, 0)
			if oneProgram(static, static).Interpreted() {
				t.Fatalf("the static base %s does not fold", tc.static)
			}
			if erred := check(t, oneProgram(dyn, dyn, dyn2), []*Design{dyn, dyn2}); erred != tc.wantErr {
				t.Errorf("as the base: a lane erred = %v, want %v", erred, tc.wantErr)
			}
			if erred := check(t, oneProgram(static, static, dyn), []*Design{static, dyn}); erred != tc.wantErr {
				t.Errorf("as a patched lane: a lane erred = %v, want %v", erred, tc.wantErr)
			}
		})
	}
}

// TestRuntimeWidthKnownAnswers pins the values of the interpreter's
// rules for bodies the batch compiler does not fold, which the
// lane-vs-Instance differential above cannot see (both sides run the
// same rules): a display task next to a blocking write, a part-select
// read and write whose bound is a signal value, and a replication
// whose count is one. With a = 5 and s = 1, 2 and 3, an Instance, a
// lane of a program whose base is the design, and a patched lane
// beside a base that folds must all give the expected y.
func TestRuntimeWidthKnownAnswers(t *testing.T) {
	cases := []struct {
		name, ports, body, static string
		want                      [3]string // y at s = 1, 2, 3
	}{
		{"display", "input [3:0] a, input [1:0] s, output reg [3:0] y",
			`always @(*) begin y = a + 4'd1; $display("y=%d", y); end`,
			`always @(*) begin y = a + 4'd1; end`, [3]string{"0110", "0110", "0110"}},
		{"part_select_bound", "input [3:0] a, input [1:0] s, output [3:0] y",
			`assign y = a[s:0];`, `assign y = a[2:0];`, [3]string{"0001", "0101", "0101"}},
		{"replication_count", "input [3:0] a, input [1:0] s, output [7:0] y",
			`assign y = {s{a}};`, `assign y = {2{a}};`, [3]string{"00000101", "01010101", "01010101"}},
		{"part_select_target", "input [3:0] a, input [1:0] s, output reg [3:0] y",
			`always @(*) begin y = 0; y[s:0] = a; end`,
			`always @(*) begin y = 0; y[2:0] = a; end`, [3]string{"0001", "0101", "0101"}},
	}
	elab := func(t *testing.T, ports, body string) *Design {
		return mustElab(t, fmt.Sprintf("module m(%s);\n    %s\nendmodule", ports, body), "m")
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dyn, static := elab(t, tc.ports, tc.body), elab(t, tc.ports, tc.static)
			patched := oneProgram(static, static, dyn)
			if !patched.Interpreted() {
				t.Fatal("the patched program runs no body on the interpreter's rules")
			}
			in := NewInstance(dyn)
			base, patch := NewBatchInstance(oneProgram(dyn, dyn)), NewBatchInstance(patched)
			// s first, as {0{a}} is an invalid replication count.
			for _, s := range []int{2, 1, 3} {
				for _, p := range []struct {
					name string
					v    uint64
				}{{"s", uint64(s)}, {"a", 5}} {
					for _, err := range []error{in.SetInputUint(p.name, p.v), base.SetInputUint(p.name, p.v), patch.SetInputUint(p.name, p.v)} {
						if err != nil {
							t.Fatal(err)
						}
					}
				}
				want := tc.want[s-1]
				if got := in.MustGet("y").String(); got != want {
					t.Errorf("s=%d: interpreter y = %s, want %s", s, got, want)
				}
				for _, l := range []struct {
					label string
					b     *BatchInstance
					lane  int
				}{{"base", base, 0}, {"patched", patch, 1}} {
					v, err := l.b.Get("y", l.lane)
					if err == nil {
						err = l.b.LaneErr(l.lane)
					}
					if err != nil {
						t.Fatalf("s=%d: %s lane: %v", s, l.label, err)
					}
					if got := v.String(); got != want {
						t.Errorf("s=%d: %s lane y = %s, want %s", s, l.label, got, want)
					}
				}
			}
		})
	}
}

// TestPartSelectWidthCap pins the part-select cap on both engines: a
// select wider than verilog.MaxVectorWidth bits — with constant bounds, or
// bounds a signal drives — is an evaluation error with one text on an
// Instance and on a batch lane, read or written, and fails without
// allocating anywhere near its width; a select at the cap, or a narrow
// one at an offset near 2^63, evaluates.
func TestPartSelectWidthCap(t *testing.T) {
	const wide = "is wider than 4096 bits"
	cases := []widthCapCase{
		{"constant_bounds", `assign y = a[24'hFFFFFF:0];`, 0, "part-select [16777215:0] " + wide},
		{"signal_bound_2^24", `assign y = a[s:0];`, 1<<24 - 1, "part-select [16777215:0] " + wide},
		{"signal_bound_2^32", `assign y = a[s:0];`, 1<<32 - 1, "part-select [4294967295:0] " + wide},
		{"beside_an_operand", `assign y = 4'd1 + a[s:0];`, 1<<32 - 1, "part-select [4294967295:0] " + wide},
		{"target", `reg [3:0] r; always @(*) begin r = 4'd0; r[s:0] = a; end assign y = r;`, 1<<32 - 1, "part-select [4294967295:0] " + wide},
		{"at_the_cap", `assign y = a[s:0];`, 4095, "0101"},
		{"constant_at_the_cap", `assign y = a[4095:0];`, 0, "0101"},
		{"far_offset", `assign y = a[s:s - 64'd1];`, 1 << 63, "00xx"},
		{"constant_far_offset", `assign y = a[64'h8000000000000000:64'h7fffffffffffffff];`, 0, "00xx"},
		{"far_target", `reg [3:0] r; always @(*) begin r = 4'd3; r[s:s - 64'd1] = a; end assign y = r;`, 1 << 63, "0011"},
	}
	checkWidthCaps(t, cases)
}

// TestReplicationWidthCap pins the replication and concatenation cap on
// both engines: a result wider than verilog.MaxVectorWidth bits — a constant or
// signal-driven count, a nested replication, one beside a narrow
// operand that the result's width would size first, or a wide
// concatenation, read or written — is an evaluation error with one text
// on an Instance and on a batch lane, found before anything is sized;
// a result at the cap evaluates.
func TestReplicationWidthCap(t *testing.T) {
	const wide = "is wider than 4096 bits"
	checkWidthCaps(t, []widthCapCase{
		{"constant_count", `assign y = {24'hFFFFFF{a}};`, 0, "replication {16777215{4 bits}} " + wide},
		{"count_2^64-1", `assign y = {64'hFFFFFFFFFFFFFFFF{a}};`, 0, "replication {18446744073709551615{4 bits}} " + wide},
		{"beside_an_operand", `assign y = 4'd1 + {24'hFFFFFF{a}};`, 0, "replication {16777215{4 bits}} " + wide},
		{"signal_count", `assign y = 4'd1 + {s{a}};`, 1<<24 - 1, "replication {16777215{4 bits}} " + wide},
		{"nested", `assign y = {4096{{4096{a}}}};`, 0, "replication {4096{4 bits}} " + wide},
		{"nested_beside_an_operand", `assign y = 4'd1 + {4096{{4096{a[0]}}}};`, 0, "replication {4096{4096 bits}} " + wide},
		{"concatenation", `assign y = 4'd1 + {a[4095:0], a};`, 0, "concatenation of 4100 bits " + wide},
		{"concatenation_target", `reg [3:0] r; always @(*) begin r = 4'd0; {r[4095:0], r} = a; end assign y = r;`, 0, "concatenation of 4100 bits " + wide},
		{"replication_at_the_cap", `assign y = 4'd1 + {1024{a}};`, 0, "0110"},
		{"signal_count_at_the_cap", `assign y = {s{a}};`, 1024, "0101"},
		{"concatenation_at_the_cap", `assign y = {a[4091:0], a};`, 0, "0101"},
	})
}

// widthCapCase is a body for module m(input [3:0] a, input [63:0] s,
// output [3:0] y), the value s is driven to before a is driven to 5,
// and y or the tail of the error those drives give.
type widthCapCase struct {
	name, body string
	s          uint64
	want       string
}

// checkWidthCaps drives each case on an Instance and on a one-lane
// batch program, and fails unless both give the same y or error text,
// that text ends as the case wants, and no drive allocates 256 KB.
func checkWidthCaps(t *testing.T, cases []widthCapCase) {
	t.Helper()
	// allocated runs f and returns the bytes it allocated.
	allocated := func(f func() error) (uint64, error) {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		err := f()
		runtime.ReadMemStats(&m1)
		return m1.TotalAlloc - m0.TotalAlloc, err
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := mustElab(t, "module m(input [3:0] a, input [63:0] s, output [3:0] y);\n    "+tc.body+"\nendmodule", "m")
			in, b := NewInstance(d), NewBatchInstance(CompileBatch(d, []*Design{d})[0])
			var got [2]string
			for e, drive := range []func(name string, v uint64) error{
				in.SetInputUint,
				func(name string, v uint64) error {
					if err := b.SetInputUint(name, v); err != nil {
						return err
					}
					return b.LaneErr(0)
				},
			} {
				var err error
				for _, dr := range []struct {
					name string
					v    uint64
				}{{"s", tc.s}, {"a", 5}} {
					var n uint64
					if n, err = allocated(func() error { return drive(dr.name, dr.v) }); n > 256<<10 {
						t.Errorf("engine %d: driving %s allocated %d bytes", e, dr.name, n)
					}
					if err != nil {
						break
					}
				}
				if err != nil {
					got[e] = err.Error()
				} else if e == 0 {
					got[e] = in.MustGet("y").String()
				} else {
					v, _ := b.Get("y", 0)
					got[e] = v.String()
				}
			}
			if got[0] != got[1] {
				t.Errorf("interpreter %q, batch lane %q", got[0], got[1])
			}
			if !strings.HasSuffix(got[0], tc.want) {
				t.Errorf("got %q, want %q", got[0], tc.want)
			}
		})
	}
}

// TestBatchLaneFailureIsolation: one lane hitting a simulation error
// (unsettleable feedback) must not disturb the other lanes.
func TestBatchLaneFailureIsolation(t *testing.T) {
	base := mustElab(t, `
module m(input [3:0] a, output [3:0] y, output [3:0] z);
    assign y = a + 4'd1;
    assign z = y;
endmodule`, "m")
	// Oscillator mutant: the === makes the feedback X-immune, so the
	// loop flips between defined values and never settles.
	osc := mustElab(t, `
module m(input [3:0] a, output [3:0] y, output [3:0] z);
    assign y = ((z + a) === 4'd0) ? 4'd1 : 4'd0;
    assign z = y;
endmodule`, "m")
	ok := mustElab(t, `
module m(input [3:0] a, output [3:0] y, output [3:0] z);
    assign y = a + 4'd2;
    assign z = y;
endmodule`, "m")
	prog := oneProgram(base, osc, ok)
	if prog.Levelized() {
		t.Fatal("oscillating variant should force event-driven mode")
	}
	if prog.Lanes() != 2 {
		t.Fatalf("lanes = %d", prog.Lanes())
	}
	b := NewBatchInstance(prog)
	if err := b.ZeroInputs(); err != nil {
		t.Fatal(err)
	}
	if b.LaneErr(0) == nil {
		t.Fatal("oscillator lane should have failed")
	}
	if b.Active(0) {
		t.Fatal("failed lane still active")
	}
	if err := b.SetInputUint("a", 4); err != nil {
		t.Fatal(err)
	}
	if le := b.LaneErr(1); le != nil {
		t.Fatalf("healthy lane failed: %v", le)
	}
	v, _ := b.Get("y", 1)
	if u, _ := v.Uint64(); u != 6 {
		t.Errorf("lane 1 y = %s, want 6", v)
	}
	if b.ActiveCount() != 1 {
		t.Errorf("ActiveCount = %d, want 1", b.ActiveCount())
	}
	// Reset is a fresh instance: the failed lane runs again.
	b.Reset()
	if !b.Active(0) || b.LaneErr(0) != nil || b.ActiveCount() != 2 {
		t.Errorf("after Reset: lane 0 active=%v err=%v, ActiveCount = %d; want a fresh instance", b.Active(0), b.LaneErr(0), b.ActiveCount())
	}
}

// TestBatchResetEqualsFresh pins the pooling contract for batches.
func TestBatchResetEqualsFresh(t *testing.T) {
	src := `
module c(input clk, input rst, input [3:0] d, output reg [3:0] q);
    always @(posedge clk or posedge rst)
        if (rst) q <= 4'd0;
        else q <= q + d;
endmodule`
	d := mustElab(t, src, "c")
	b := NewBatchInstance(oneProgram(d, mustElab(t, src, "c"), mustElab(t, src, "c")))
	run := func(seed int64) string {
		rng := rand.New(rand.NewSource(seed))
		if err := b.ZeroInputs(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			if err := b.SetInputUint("d", rng.Uint64()); err != nil {
				t.Fatal(err)
			}
			if err := b.Tick("clk"); err != nil {
				t.Fatal(err)
			}
		}
		return batchSnapshot(t, b, 0) + batchSnapshot(t, b, 1)
	}
	first := run(42)
	b.Reset()
	if second := run(42); second != first {
		t.Fatalf("reset batch diverges from fresh:\n%s\nvs\n%s", second, first)
	}
}

// TestBatchProgramSharedConcurrently: one program, many instances, in
// parallel (race detector coverage for the shared compiled closures).
func TestBatchProgramSharedConcurrently(t *testing.T) {
	src := `
module m(input clk, input [7:0] d, output reg [7:0] q, output [7:0] y);
    assign y = d ^ q;
    always @(posedge clk) q <= d;
endmodule`
	d := mustElab(t, src, "m")
	prog := oneProgram(d, mustElab(t, src, "m"), mustElab(t, src, "m"))
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			b := NewBatchInstance(prog)
			rng := rand.New(rand.NewSource(seed))
			if err := b.ZeroInputs(); err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < 50; i++ {
				if err := b.SetInputUint("d", rng.Uint64()); err != nil {
					t.Error(err)
					return
				}
				if err := b.Tick("clk"); err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
}
