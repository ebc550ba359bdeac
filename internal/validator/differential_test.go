package validator

import (
	"context"
	"math/rand"
	"testing"

	"correctbench/internal/dataset"
	"correctbench/internal/llm"
	"correctbench/internal/sim"
	"correctbench/internal/testbench"
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
				// Separate testbench value per engine so the checker
				// caches are independent.
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
			outs, err := btb.RunBatchContext(context.Background(), testbench.NewDUTSet(goldenDesign, duts), false, nil)
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
