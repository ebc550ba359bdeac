package harness

import (
	"context"
	"strings"
	"testing"

	"correctbench/internal/autoeval"
	"correctbench/internal/dataset"
	"correctbench/internal/llm"
	"correctbench/internal/validator"
)

// subset returns a small mixed CMB/SEQ problem slice for fast tests.
func subset(t *testing.T) []*dataset.Problem {
	t.Helper()
	var out []*dataset.Problem
	for _, name := range []string{"mux2_w4", "adder8", "parity_even8", "cnt8", "det101", "sipo8"} {
		p := dataset.ByName(name)
		if p == nil {
			t.Fatalf("problem %s missing", name)
		}
		out = append(out, p)
	}
	return out
}

func TestRunSmallExperiment(t *testing.T) {
	res, err := RunContext(context.Background(), Config{Reps: 2, Seed: 7, Problems: subset(t)})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range AllMethods() {
		if len(res.Outcomes[m]) != 2 {
			t.Fatalf("%s: reps = %d", m, len(res.Outcomes[m]))
		}
		for _, rep := range res.Outcomes[m] {
			if len(rep) != 6 {
				t.Fatalf("%s: tasks = %d", m, len(rep))
			}
		}
	}
	// Ratios are within [0,1] and Eval0 >= Eval1 >= Eval2 (cumulative).
	for _, m := range AllMethods() {
		for _, g := range Groups() {
			e0 := res.Stats(m, g, autoeval.GradeEval0).Ratio
			e1 := res.Stats(m, g, autoeval.GradeEval1).Ratio
			e2 := res.Stats(m, g, autoeval.GradeEval2).Ratio
			if e0 < e1 || e1 < e2 || e2 < 0 || e0 > 1 {
				t.Errorf("%s/%s: ratios not monotone: %v %v %v", m, g.Name, e0, e1, e2)
			}
		}
	}
}

func TestTableRenderingsContainKeyRows(t *testing.T) {
	res, err := RunContext(context.Background(), Config{Reps: 1, Seed: 3, Problems: subset(t)})
	if err != nil {
		t.Fatal(err)
	}
	t1 := res.Table1()
	for _, want := range []string{"TABLE I", "CorrectBench", "AutoBench", "Baseline", "Eval2", "SEQ"} {
		if !strings.Contains(t1, want) {
			t.Errorf("Table1 missing %q", want)
		}
	}
	t3 := res.Table3()
	for _, want := range []string{"TABLE III", "Val.", "Corr.", "Gain"} {
		if !strings.Contains(t3, want) {
			t.Errorf("Table3 missing %q", want)
		}
	}
	if !strings.Contains(Table2(), "Eval2") {
		t.Error("Table2 incomplete")
	}
}

func TestAttributionConsistency(t *testing.T) {
	res, err := RunContext(context.Background(), Config{Reps: 1, Seed: 5, Problems: subset(t)})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range res.Attribute() {
		if a.Corrector > a.Validator {
			t.Errorf("%s: Corr. %v exceeds Val. %v", a.Group, a.Corrector, a.Validator)
		}
		if a.Validator > a.CorrectBench {
			t.Errorf("%s: Val. %v exceeds CorrectBench passes %v", a.Group, a.Validator, a.CorrectBench)
		}
	}
}

func TestGradeSharesSumToOne(t *testing.T) {
	res, err := RunContext(context.Background(), Config{Reps: 1, Seed: 9, Problems: subset(t), Methods: []Method{MethodBaseline}})
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, g := range []autoeval.Grade{autoeval.GradeFailed, autoeval.GradeEval0, autoeval.GradeEval1, autoeval.GradeEval2} {
		total += res.GradeShare(MethodBaseline, g)
	}
	if total < 0.999 || total > 1.001 {
		t.Errorf("grade shares sum to %v", total)
	}
}

func TestCriteriaAccuracySmall(t *testing.T) {
	rows, err := CriteriaAccuracyContext(context.Background(), CriteriaAccuracyConfig{
		PerTask: 2, NR: 12, Seed: 11, Problems: subset(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("criteria rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.NTotal != 12 {
			t.Errorf("%s: corpus = %d", r.Criterion, r.NTotal)
		}
		if r.Total < 0 || r.Total > 1 {
			t.Errorf("%s: accuracy %v out of range", r.Criterion, r.Total)
		}
	}
	if !strings.Contains(RenderFig6a(rows), "70%-wrong") {
		t.Error("Fig6a rendering incomplete")
	}
}

func TestCriteriaPipelineSmall(t *testing.T) {
	var rows []CriterionPipelineResult
	for _, c := range validator.Criteria() {
		row, err := CriterionPipelineContext(context.Background(), Config{Criterion: c, Reps: 1, Seed: 13, Problems: subset(t)})
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, row)
	}
	if len(rows) != len(validator.Criteria()) {
		t.Fatalf("rows = %d", len(rows))
	}
	if !strings.Contains(RenderFig6b(rows), "Eval2 ratio") {
		t.Error("Fig6b rendering incomplete")
	}
}

func TestFig7Rendering(t *testing.T) {
	res, err := RunContext(context.Background(), Config{Reps: 1, Seed: 15, Problems: subset(t), Profile: llm.GPT4oMini()})
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Fig7Rows()
	if len(rows) != 3 {
		t.Fatalf("fig7 rows = %d", len(rows))
	}
	out := RenderFig7("gpt-4o-mini", rows)
	if !strings.Contains(out, "gpt-4o-mini") || !strings.Contains(out, "CorrectBench") {
		t.Errorf("fig7 rendering incomplete:\n%s", out)
	}
}

func TestAvgTokensPositive(t *testing.T) {
	res, err := RunContext(context.Background(), Config{Reps: 1, Seed: 17, Problems: subset(t), Methods: []Method{MethodCorrectBench}})
	if err != nil {
		t.Fatal(err)
	}
	in, out := res.AvgTokens(MethodCorrectBench)
	if in <= 0 || out <= 0 {
		t.Errorf("avg tokens = %v, %v", in, out)
	}
}

func TestRunSeedDeterminism(t *testing.T) {
	cfg := Config{Reps: 1, Seed: 21, Problems: subset(t), Methods: []Method{MethodAutoBench}}
	r1, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range r1.Outcomes[MethodAutoBench][0] {
		if o.Grade != r2.Outcomes[MethodAutoBench][0][i].Grade {
			t.Fatalf("task %d grade differs between identical runs", i)
		}
	}
}
