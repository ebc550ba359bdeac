package correctbench

import (
	"context"
	"testing"

	"correctbench/internal/harness"
	"correctbench/internal/sim"
)

// TestTableOutputEngineDifferential runs the full Table-I pipeline —
// three methods over the benchmark problem mix — once on the batch
// engine and once with every simulation on the reference interpreter,
// and asserts byte-identical published tables. Together with
// validator.TestCompiledEngineDifferential (RS matrices over all
// dataset problems) this is the end-to-end proof that compiling the
// simulator changed only speed, never results.
func TestTableOutputEngineDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("full table pipeline; skipped in -short mode")
	}
	probs := benchmarkMix()

	runTables := func(e sim.Engine) (string, string) {
		prev := sim.DefaultEngine
		sim.DefaultEngine = e
		defer func() { sim.DefaultEngine = prev }()
		res, err := harness.RunContext(context.Background(), harness.Config{Reps: 1, Seed: 42, Problems: probs, Workers: 2})
		if err != nil {
			t.Fatalf("harness (%s): %v", e, err)
		}
		return res.Table1(), res.Table3()
	}

	t1i, t3i := runTables(sim.EngineInterp)
	t1b, t3b := runTables(sim.EngineBatched)
	if t1b != t1i {
		t.Errorf("Table I differs between engines\nbatched:\n%s\ninterp:\n%s", t1b, t1i)
	}
	if t3b != t3i {
		t.Errorf("Table III differs between engines\nbatched:\n%s\ninterp:\n%s", t3b, t3i)
	}
}
