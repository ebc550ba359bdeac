package correctbench

// One benchmark per table and figure of the paper, plus
// microbenchmarks of the substrate. The per-experiment benchmarks run
// the exact code paths that regenerate the published artifacts but on
// reduced task subsets so that `go test -bench=.` completes in
// minutes; the cmd/ tools run the full-scale versions (156 tasks,
// 5 repetitions) and EXPERIMENTS.md records their output.

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"correctbench/internal/autoeval"
	"correctbench/internal/dataset"
	"correctbench/internal/harness"
	"correctbench/internal/llm"
	"correctbench/internal/sim"
	"correctbench/internal/testbench"
	"correctbench/internal/validator"
	"correctbench/internal/verilog"
)

// benchmarkMix returns the fixed 12-problem CMB/SEQ mix used by the
// experiment-scale benchmarks and the engine differential, so both run
// the same workload.
func benchmarkMix() []*dataset.Problem {
	names := []string{
		"mux4_w4", "adder8", "alu4", "prio_enc8", "sevenseg", "parity_even8",
		"cnt8", "det101", "sipo8", "shift18", "timer8", "lfsr8",
	}
	out := make([]*dataset.Problem, 0, len(names))
	for _, n := range names {
		p := dataset.ByName(n)
		if p == nil {
			panic("benchmark problem " + n + " missing")
		}
		out = append(out, p)
	}
	return out
}

// BenchmarkTable1MainResults regenerates Table I (three methods,
// Eval0/1/2 by group) on the benchmark subset.
func BenchmarkTable1MainResults(b *testing.B) {
	probs := benchmarkMix()
	for i := 0; i < b.N; i++ {
		res, err := harness.RunContext(context.Background(), harness.Config{Reps: 1, Seed: int64(i) + 1, Problems: probs})
		if err != nil {
			b.Fatal(err)
		}
		_ = res.Table1()
	}
}

// BenchmarkTable1Workers regenerates Table I at several worker-pool
// widths. Results are identical at every width (the harness derives
// per-cell random streams), so the sub-benchmarks measure pure
// scheduling gain.
func BenchmarkTable1Workers(b *testing.B) {
	probs := benchmarkMix()
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := harness.RunContext(context.Background(), harness.Config{
					Reps: 1, Seed: int64(i) + 1, Problems: probs, Workers: workers,
				})
				if err != nil {
					b.Fatal(err)
				}
				_ = res.Table1()
			}
		})
	}
}

// BenchmarkTable3AttributionParallel is BenchmarkTable3Attribution
// over a full-width worker pool.
func BenchmarkTable3AttributionParallel(b *testing.B) {
	probs := benchmarkMix()
	for i := 0; i < b.N; i++ {
		res, err := harness.RunContext(context.Background(), harness.Config{
			Reps: 1, Seed: int64(i) + 10, Problems: probs, Workers: runtime.GOMAXPROCS(0),
			Methods: []harness.Method{harness.MethodCorrectBench, harness.MethodAutoBench},
		})
		if err != nil {
			b.Fatal(err)
		}
		_ = res.Table3()
	}
}

// BenchmarkTable3Attribution regenerates Table III (validator and
// corrector contributions).
func BenchmarkTable3Attribution(b *testing.B) {
	probs := benchmarkMix()
	for i := 0; i < b.N; i++ {
		res, err := harness.RunContext(context.Background(), harness.Config{
			Reps: 1, Seed: int64(i) + 10, Problems: probs,
			Methods: []harness.Method{harness.MethodCorrectBench, harness.MethodAutoBench},
		})
		if err != nil {
			b.Fatal(err)
		}
		_ = res.Table3()
	}
}

// BenchmarkFig4RSMatrix builds and renders an RS matrix for one task
// (N_R = 20), the artifact of Fig. 4.
func BenchmarkFig4RSMatrix(b *testing.B) {
	p := dataset.ByName("cnt8")
	prof := llm.GPT4o()
	rng := rand.New(rand.NewSource(4))
	var acct llm.Accountant
	cands, err := validator.GenerateRTLGroup(p, prof, 20, rng, &acct)
	if err != nil {
		b.Fatal(err)
	}
	group, err := validator.NewGroup(context.Background(), p, cands)
	if err != nil {
		b.Fatal(err)
	}
	scs, err := testbench.GenerateScenarios(p, rng, testbench.Coverage{Scenarios: 10, Steps: 12, Corners: true})
	if err != nil {
		b.Fatal(err)
	}
	tb := &testbench.Testbench{Problem: p, Scenarios: scs, CheckerSource: p.Source, CheckerTop: p.Top, CheckerSticky: -1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, ok, err := validator.BuildMatrix(context.Background(), tb, group)
		if err != nil {
			b.Fatal(err)
		}
		if !ok {
			b.Fatal("matrix build failed")
		}
		_ = m.Render()
	}
}

// BenchmarkFig6aValidatorAccuracy runs the labeled-corpus criteria
// study of Fig. 6(a) on the benchmark subset.
func BenchmarkFig6aValidatorAccuracy(b *testing.B) {
	probs := benchmarkMix()
	for i := 0; i < b.N; i++ {
		rows, err := harness.CriteriaAccuracyContext(context.Background(), harness.CriteriaAccuracyConfig{
			PerTask: 3, Seed: int64(i) + 20, Problems: probs,
		})
		if err != nil {
			b.Fatal(err)
		}
		_ = harness.RenderFig6a(rows)
	}
}

// BenchmarkFig6bCriteriaPipeline runs the whole framework under each
// validation criterion, the experiment of Fig. 6(b).
func BenchmarkFig6bCriteriaPipeline(b *testing.B) {
	probs := benchmarkMix()[:6]
	for i := 0; i < b.N; i++ {
		var rows []harness.CriterionPipelineResult
		for _, c := range validator.Criteria() {
			row, err := harness.CriterionPipelineContext(context.Background(), harness.Config{Criterion: c, Reps: 1, Seed: int64(i) + 30, Problems: probs})
			if err != nil {
				b.Fatal(err)
			}
			rows = append(rows, row)
		}
		_ = harness.RenderFig6b(rows)
	}
}

// BenchmarkFig7LLMComparison runs the three methods under each LLM
// profile, the experiment of Fig. 7.
func BenchmarkFig7LLMComparison(b *testing.B) {
	probs := benchmarkMix()[:6]
	for i := 0; i < b.N; i++ {
		for _, prof := range llm.Profiles() {
			res, err := harness.RunContext(context.Background(), harness.Config{
				Reps: 1, Seed: int64(i) + 40, Problems: probs, Profile: prof,
			})
			if err != nil {
				b.Fatal(err)
			}
			_ = harness.RenderFig7(prof.Name, res.Fig7Rows())
		}
	}
}

// ---- substrate microbenchmarks ----

// BenchmarkParse measures the Verilog front end on a mid-size module.
func BenchmarkParse(b *testing.B) {
	src := dataset.ByName("shift18").Source
	b.SetBytes(int64(len(src)))
	for i := 0; i < b.N; i++ {
		if _, err := verilog.Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkElaborate measures flattening and binding.
func BenchmarkElaborate(b *testing.B) {
	src := dataset.ByName("fifo2").Source
	for i := 0; i < b.N; i++ {
		if _, err := sim.ElaborateSourceContext(context.Background(), src, "fifo2"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimTick measures clocked-simulation throughput of one
// design on each engine: a one-lane batch program against the
// interpreter.
func BenchmarkSimTick(b *testing.B) {
	d, err := sim.ElaborateSourceContext(context.Background(), dataset.ByName("cnt8").Source, "cnt8")
	if err != nil {
		b.Fatal(err)
	}
	type ticker interface {
		ZeroInputs() error
		SetInputUint(string, uint64) error
		Tick(string) error
	}
	prog := sim.CompileBatch(d, []*sim.Design{d})[0]
	for _, eng := range []struct {
		name string
		mk   func() ticker
	}{
		{"batched", func() ticker { return sim.NewBatchInstance(prog) }},
		{"interp", func() ticker { return sim.NewInstance(d) }},
	} {
		b.Run(eng.name, func(b *testing.B) {
			in := eng.mk()
			if err := in.ZeroInputs(); err != nil {
				b.Fatal(err)
			}
			in.SetInputUint("rst", 1)
			in.Tick("clk")
			in.SetInputUint("rst", 0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := in.Tick("clk"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTestbenchRun measures a full golden-TB-vs-golden-RTL run.
func BenchmarkTestbenchRun(b *testing.B) {
	p := dataset.ByName("det101")
	tb, err := testbench.Golden(p, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	d, err := p.Elaborate()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := tb.RunAgainstDesignContext(context.Background(), d)
		if err != nil || !res.Pass() {
			b.Fatalf("run failed: %v", err)
		}
	}
}

// BenchmarkEval2 measures one full AutoEval grading.
func BenchmarkEval2(b *testing.B) {
	p := dataset.ByName("alu4")
	e := autoeval.NewEvaluator(7)
	tb, err := e.GoldenTestbench(p)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := e.EvaluateContext(context.Background(), tb); err != nil { // warm fixtures
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.EvaluateContext(context.Background(), tb); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCorrectBenchTask measures one whole Algorithm 1 task.
func BenchmarkCorrectBenchTask(b *testing.B) {
	c := NewClient()
	for i := 0; i < b.N; i++ {
		if _, err := c.GenerateTestbench(context.Background(), "cnt8", TaskSpec{Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}
