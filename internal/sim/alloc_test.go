package sim_test

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"correctbench/internal/dataset"
	"correctbench/internal/logic"
	"correctbench/internal/mutate"
	"correctbench/internal/sim"
	"correctbench/internal/verilog"
)

// TestBatchSteadyStateAllocatesNothing: for every golden of the
// dataset, a steady-state step — driving every data input and settling
// (CMB) or ticking the clock (SEQ) — allocates nothing. Two placements
// per golden: the golden alone on a one-lane program, and the golden
// plus three seeded mutants on the programs CompileBatch places them
// on. Two constructed modules join the goldens, since no golden has a
// body that runs on the interpreter's rules: a display task, whose
// output a batch discards, beside an assignment, and a part-select
// target whose bounds are signal values.
func TestBatchSteadyStateAllocatesNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("full dataset sweep")
	}
	const ports = "module m(input [3:0] a, input [1:0] s, output reg [3:0] y);\n    "
	constructed := []*dataset.Problem{
		{Name: "display_body", Kind: dataset.CMB, Top: "m",
			Source: ports + "always @(*) begin $display(\"%d\", a); y = a; end\nendmodule\n"},
		{Name: "dynamic_target", Kind: dataset.CMB, Top: "m",
			Source: ports + "always @(*) begin y = 4'd0; y[s:0] = a[s:0]; end\nendmodule\n"},
	}
	rng := rand.New(rand.NewSource(35))
	for _, p := range slices.Concat(dataset.All(), constructed) {
		d, err := p.Elaborate()
		if err != nil {
			t.Fatalf("%s: elaborate: %v", p.Name, err)
		}
		ins, err := p.DataInputs()
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		group := []*sim.Design{d}
		f, err := verilog.Parse(p.Source)
		if err != nil {
			t.Fatalf("%s: parse: %v", p.Name, err)
		}
		for len(group) < 4 {
			mut, applied, _ := mutate.Mutate(f.Module(p.Top), rng, 1)
			if len(applied) == 0 {
				break
			}
			md, err := sim.ElaborateSourceContext(context.Background(), verilog.PrintModule(mut), p.Top)
			if err != nil {
				continue // mutants the engine rejects are outside the contract
			}
			group = append(group, md)
		}
		progs := append(sim.CompileBatch(d, []*sim.Design{d}), sim.CompileBatch(d, group)...)
		for i, prog := range progs {
			if allocs := steadyStepAllocs(t, p, ins, prog); allocs != 0 {
				t.Errorf("%s: program %d of %d (%d lanes, levelized=%v): a step allocates %.1f times, want 0",
					p.Name, i, len(progs), prog.Lanes(), prog.Levelized(), allocs)
			}
		}
	}
}

// steadyStepAllocs reports the allocations of one step on a fresh
// instance of prog past its first steps: every data input driven to a
// new value, then a settle or, for SEQ problems, a clock tick.
func steadyStepAllocs(t *testing.T, p *dataset.Problem, ins []sim.Port, prog *sim.BatchProgram) float64 {
	t.Helper()
	b := sim.NewBatchInstance(prog)
	if err := b.ZeroInputs(); err != nil {
		t.Fatalf("%s: %v", p.Name, err)
	}
	if p.Reset != "" {
		if err := b.SetInputUint(p.Reset, 1); err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if p.Kind == dataset.SEQ {
			if err := b.Tick(p.Clock); err != nil {
				t.Fatalf("%s: %v", p.Name, err)
			}
		}
		if err := b.SetInputUint(p.Reset, 0); err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
	}
	x := uint64(0x9e3779b97f4a7c15)
	var runErr error
	step := func() {
		for _, in := range ins {
			x = x*6364136223846793005 + 1442695040888963407
			if err := b.SetInput(in.Name, logic.FromUint64(in.Width, x>>11)); err != nil {
				runErr = err
			}
		}
		var err error
		if p.Kind == dataset.SEQ {
			err = b.Tick(p.Clock)
		} else {
			err = b.Settle()
		}
		if err != nil {
			runErr = err
		}
	}
	for i := 0; i < 8; i++ { // grow the per-lane lists to their steady size
		step()
	}
	allocs := testing.AllocsPerRun(50, step)
	if runErr != nil {
		t.Fatalf("%s: %v", p.Name, runErr)
	}
	return allocs
}
