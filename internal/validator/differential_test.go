package validator

import (
	"context"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"correctbench/internal/dataset"
	"correctbench/internal/llm"
	"correctbench/internal/mutate"
	"correctbench/internal/sim"
	"correctbench/internal/testbench"
	"correctbench/internal/verilog"
)

// TestCompiledEngineDifferential proves the batch engine is bit-for-bit
// identical to the AST interpreter over the entire dataset: for every
// problem it builds the golden testbench and an imperfect RTL group
// (mutated, correct and syntax-broken candidates, exactly as the
// paper's validator does) and asserts that the RS matrices produced on
// the batch engine and with every simulation on the interpreter render
// identically — same rows, same red/green cells, same discards — and
// that every candidate run as a batch lane produces exactly the row of
// its own interpreter run. The subtests are sequential because the
// interpreter runs flip the process-wide sim.DefaultEngine.
func TestCompiledEngineDifferential(t *testing.T) {
	prof := llm.GPT4o()
	v := &Validator{Criterion: Wrong70}
	for _, p := range dataset.All() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(1234))
			var acct llm.Accountant
			cands, err := GenerateRTLGroup(p, prof, 6, rng, &acct)
			if err != nil {
				t.Fatalf("rtl group: %v", err)
			}
			group, err := NewGroup(context.Background(), p, cands)
			if err != nil {
				t.Fatalf("rtl group: %v", err)
			}
			gtb, err := testbench.Golden(p, rng)
			if err != nil {
				t.Fatalf("golden: %v", err)
			}

			run := func(engine sim.Engine) (string, bool) {
				defer withEngine(engine)()
				// The engine is part of every trace-store key, so the
				// two engines' runs share no recording.
				tb := gtb.WithChecker(gtb.CheckerSource, gtb.CheckerPlan, gtb.CheckerSticky)
				m, ok, err := v.BuildMatrixContext(context.Background(), tb, group)
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					return "", false
				}
				return m.Render(), true
			}

			interp, okI := run(sim.EngineInterp)
			batched, okB := run(sim.EngineBatched)
			if okB != okI {
				t.Fatalf("engines disagree on testbench viability: interp=%v batched=%v", okI, okB)
			}
			if batched != interp {
				t.Fatalf("RS matrices differ between engines\nbatched:\n%s\ninterp:\n%s", batched, interp)
			}

			// The matrix rows above run the candidates as batch lanes;
			// now run each lane's design on its own interpreter
			// instance and require identical per-scenario rows.
			goldenDesign, err := p.Elaborate()
			if err != nil {
				t.Fatalf("golden design: %v", err)
			}
			duts := group.duts
			if len(duts) == 0 {
				t.Fatalf("no elaborable candidates in RTL group")
			}
			btb := gtb.WithChecker(gtb.CheckerSource, gtb.CheckerPlan, gtb.CheckerSticky)
			outs, err := btb.RunBatchContext(context.Background(), testbench.NewDUTSet(goldenDesign, duts), false)
			if err != nil {
				t.Fatal(err)
			}
			restore := withEngine(sim.EngineInterp)
			defer restore()
			for i, d := range duts {
				res, rerr := btb.RunAgainstDesignContext(context.Background(), d)
				if (outs[i].Err != nil) != (rerr != nil) {
					t.Fatalf("candidate %d: batch err=%v interp err=%v", i, outs[i].Err, rerr)
				}
				if rerr != nil {
					continue
				}
				for s := range res.ScenarioPass {
					if outs[i].Res.ScenarioPass[s] != res.ScenarioPass[s] {
						t.Fatalf("candidate %d scenario %d: batch %v, interp %v",
							i, s, outs[i].Res.ScenarioPass[s], res.ScenarioPass[s])
					}
				}
			}
		})
	}
}

// withEngine points the process-wide reference switch at e and returns
// the function that restores it. Callers must not run in parallel with
// other simulations.
func withEngine(e sim.Engine) func() {
	prev := sim.DefaultEngine
	sim.DefaultEngine = e
	return func() { sim.DefaultEngine = prev }
}

// TestGroupSharedDesignsDifferential: on every problem, the RS matrices
// of a NewGroup, which elaborates each distinct candidate source once
// and shares the design between equal candidates, must equal those of
// a group whose candidates were elaborated one at a time — same rows
// in the same order, same discarded count — for the golden checker and
// a faulty one, and each row must be a slice of its own.
func TestGroupSharedDesignsDifferential(t *testing.T) {
	ctx := context.Background()
	prof := llm.GPT4o()
	v := &Validator{Criterion: Wrong70}
	shared := 0
	for _, p := range dataset.All() {
		rng := rand.New(rand.NewSource(4242))
		var acct llm.Accountant
		cands, err := GenerateRTLGroup(p, prof, 20, rng, &acct)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		group, err := NewGroup(ctx, p, cands)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		base, err := p.Elaborate()
		if err != nil {
			t.Fatal(err)
		}
		alone := &Group{Candidates: cands, designs: make([]*sim.Design, len(cands))}
		for i, c := range cands {
			if d, err := sim.ElaborateSourceContext(ctx, c.Source, p.Top); err == nil {
				alone.designs[i] = d
				alone.duts = append(alone.duts, d)
			}
		}
		alone.set = testbench.NewDUTSet(base, alone.duts)
		if len(alone.duts) != len(group.duts) {
			t.Fatalf("%s: %d elaborable candidates, want %d", p.Name, len(group.duts), len(alone.duts))
		}
		for i, d := range group.duts {
			if slices.Index(group.duts, d) < i {
				shared++
			}
		}

		gtb, err := testbench.Golden(p, rng)
		if err != nil {
			t.Fatal(err)
		}
		mod, err := p.Module()
		if err != nil {
			t.Fatal(err)
		}
		mut, _, _ := mutate.Mutate(mod, rng, 1)
		for _, tb := range []*testbench.Testbench{gtb, gtb.WithChecker(verilog.PrintModule(mut), mutate.Plan{}, -1)} {
			want, wantOK, err := v.BuildMatrixContext(ctx, tb, alone)
			if err != nil {
				t.Fatal(err)
			}
			got, ok, err := v.BuildMatrixContext(ctx, tb, group)
			if err != nil {
				t.Fatal(err)
			}
			if ok != wantOK {
				t.Fatalf("%s: shared-design group ok=%v, one-at-a-time ok=%v", p.Name, ok, wantOK)
			}
			if !ok {
				continue
			}
			if !reflect.DeepEqual(got.Rows, want.Rows) || got.Discarded != want.Discarded {
				t.Fatalf("%s: RS matrices differ\nshared:\n%s\none at a time:\n%s", p.Name, got.Render(), want.Render())
			}
			for i, row := range got.Rows {
				for _, other := range got.Rows[:i] {
					if len(row) > 0 && &row[0] == &other[0] {
						t.Fatalf("%s: rows share a slice", p.Name)
					}
				}
			}
		}
	}
	if shared == 0 {
		t.Error("no group shared a design; the test compared nothing new")
	}
	t.Logf("%d candidates shared a design", shared)
}
