package testbench

import (
	"context"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"correctbench/internal/mutate"
	"correctbench/internal/sim"
	"correctbench/internal/verilog"
)

// batchDiffDUTs builds a DUT set for a problem: the base design itself,
// a structurally-incompatible clone (extra signal — forces the
// per-lane interpreter fallback), and a set of single/double mutants.
func batchDiffDUTs(t *testing.T, tb *Testbench, base *sim.Design) []*sim.Design {
	t.Helper()
	p := tb.Problem
	duts := []*sim.Design{base} // aliasing the base is allowed

	withExtra := strings.Replace(p.Source, "endmodule",
		"wire batch_diff_pad;\nassign batch_diff_pad = 1'b0;\nendmodule", 1)
	if d, err := sim.ElaborateSourceContext(context.Background(), withExtra, p.Top); err == nil {
		duts = append(duts, d)
	}

	mod, err := p.Module()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(33))
	for i := 0; i < 20 && len(duts) < 12; i++ {
		mut, muts := mutate.Mutate(mod, rng, 1+i%2)
		if len(muts) == 0 {
			continue
		}
		d, err := sim.ElaborateSourceContext(context.Background(), verilog.PrintModule(mut), p.Top)
		if err != nil {
			continue
		}
		duts = append(duts, d)
	}
	if len(duts) < 5 {
		t.Fatalf("only %d elaborable DUTs", len(duts))
	}
	return duts
}

// TestBatchRunMatchesScalar is the testbench-layer differential gate:
// with earlyExit=false every batched lane — and every one-lane
// RunAgainstDesignContext run — must reproduce the interpreter run
// (runLive) of the same DUT exactly — same ScenarioPass vector, same
// error text when the run errors — and with earlyExit=true the
// killed/alive verdict must agree.
func TestBatchRunMatchesScalar(t *testing.T) {
	for _, name := range []string{"mux2_w4", "adder8", "prio_enc8", "cnt8", "det101", "fifo2"} {
		t.Run(name, func(t *testing.T) {
			tb := golden(t, name)
			p := tb.Problem
			base, err := sim.ElaborateSourceContext(context.Background(), p.Source, p.Top)
			if err != nil {
				t.Fatal(err)
			}
			duts := batchDiffDUTs(t, tb, base)

			prog, err := sim.CompileBatch(base, duts)
			if err != nil {
				t.Fatalf("batch compile: %v", err)
			}
			if prog.Lanes() < len(duts)/2 {
				t.Fatalf("only %d/%d DUTs batched", prog.Lanes(), len(duts))
			}

			scalarRes := make([]*RunResult, len(duts))
			scalarErr := make([]error, len(duts))
			for i, d := range duts {
				scalarRes[i], scalarErr[i] = tb.runLive(context.Background(), d)
			}
			for i, d := range duts {
				res, err := tb.RunAgainstDesignContext(context.Background(), d)
				if (err != nil) != (scalarErr[i] != nil) || (err != nil && err.Error() != scalarErr[i].Error()) {
					t.Errorf("dut %d one-lane: err=%v, interp err=%v", i, err, scalarErr[i])
					continue
				}
				if err == nil && !reflect.DeepEqual(res.ScenarioPass, scalarRes[i].ScenarioPass) {
					t.Errorf("dut %d one-lane: ScenarioPass diverged\none-lane: %v\n  interp: %v", i, res.ScenarioPass, scalarRes[i].ScenarioPass)
				}
			}

			batch, err := tb.RunBatchAgainstDesignsContext(context.Background(), base, duts, false)
			if err != nil {
				t.Fatal(err)
			}
			for i := range duts {
				lane := prog.VariantLane(i)
				if (batch[i].Err != nil) != (scalarErr[i] != nil) {
					t.Errorf("dut %d (lane %d): batch err=%v, scalar err=%v", i, lane, batch[i].Err, scalarErr[i])
					continue
				}
				if batch[i].Err != nil {
					if batch[i].Err.Error() != scalarErr[i].Error() {
						t.Errorf("dut %d (lane %d): error text diverged\n batch: %v\nscalar: %v", i, lane, batch[i].Err, scalarErr[i])
					}
					continue
				}
				if !reflect.DeepEqual(batch[i].Res.ScenarioPass, scalarRes[i].ScenarioPass) {
					t.Errorf("dut %d (lane %d): ScenarioPass diverged\n batch: %v\nscalar: %v",
						i, lane, batch[i].Res.ScenarioPass, scalarRes[i].ScenarioPass)
				}
			}

			early, err := tb.RunBatchAgainstDesignsContext(context.Background(), base, duts, true)
			if err != nil {
				t.Fatal(err)
			}
			for i := range duts {
				sKilled := scalarErr[i] != nil || !scalarRes[i].Pass()
				bKilled := early[i].Err != nil || !early[i].Res.Pass()
				if sKilled != bKilled {
					t.Errorf("dut %d: earlyExit verdict diverged: batch killed=%v, scalar killed=%v", i, bKilled, sKilled)
				}
			}
		})
	}
}

// TestBatchRunWholesaleFallback drives the paths where the base design
// or the checker cannot batch-compile ($display is dynamic): every DUT
// must still get its exact interpreter outcome.
func TestBatchRunWholesaleFallback(t *testing.T) {
	tb := golden(t, "mux2_w4")
	p := tb.Problem
	src := strings.Replace(p.Source, "endmodule",
		"always @(*) if (sel === 1'bx) $display(\"x-sel\");\nendmodule", 1)
	base, err := sim.ElaborateSourceContext(context.Background(), src, p.Top)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.CompileBatch(base, []*sim.Design{base}); err == nil {
		t.Fatal("expected batch compile of $display design to fail")
	}
	golden, err := sim.ElaborateSourceContext(context.Background(), p.Source, p.Top)
	if err != nil {
		t.Fatal(err)
	}
	liveChecker := tb.WithChecker(src, tb.CheckerPlan, tb.CheckerSticky)
	for _, tc := range []struct {
		label string
		tb    *Testbench
		base  *sim.Design
	}{
		{"base", tb, base},
		{"checker", liveChecker, golden},
	} {
		duts := []*sim.Design{base, golden}
		batch, err := tc.tb.RunBatchAgainstDesignsContext(context.Background(), tc.base, duts, false)
		if err != nil {
			t.Fatal(err)
		}
		for i, d := range duts {
			res, rerr := tc.tb.runLive(context.Background(), d)
			if (batch[i].Err != nil) != (rerr != nil) {
				t.Fatalf("%s dut %d: batch err=%v interp err=%v", tc.label, i, batch[i].Err, rerr)
			}
			if rerr == nil && !reflect.DeepEqual(batch[i].Res.ScenarioPass, res.ScenarioPass) {
				t.Errorf("%s dut %d: ScenarioPass diverged: %v vs %v", tc.label, i, batch[i].Res.ScenarioPass, res.ScenarioPass)
			}
		}
	}
	if tr, err := liveChecker.batchTrace(context.Background(), outputPorts(golden)); err != nil || !tr.live {
		t.Errorf("$display checker: trace live=%v err=%v, want a live trace", tr != nil && tr.live, err)
	}
}
