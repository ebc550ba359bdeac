package harness

import (
	"context"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"correctbench/internal/autobench"
	"correctbench/internal/autoeval"
	"correctbench/internal/dataset"
	"correctbench/internal/llm"
	"correctbench/internal/rng"
	"correctbench/internal/validator"
)

// CriteriaAccuracyConfig configures the Fig. 6(a) study: a corpus of
// labeled testbenches is validated with each criterion and accuracies
// are reported for all/correct/wrong testbenches.
type CriteriaAccuracyConfig struct {
	Profile *llm.Profile
	// PerTask is the number of testbenches collected per problem
	// (paper: 1560 total = 156 x 10).
	PerTask int
	NR      int
	Seed    int64
	// Workers bounds per-problem concurrency (0: GOMAXPROCS). Any
	// value produces the identical corpus: each problem's testbenches
	// come from a stream derived from (Seed, problem name) alone.
	Workers  int
	Problems []*dataset.Problem
	Progress io.Writer
}

// CriterionAccuracy is one bar group of Fig. 6(a).
type CriterionAccuracy struct {
	Criterion string
	Total     float64
	CorrectTB float64
	WrongTB   float64
	NTotal    int
	NCorrect  int
	NWrong    int
}

// CriteriaAccuracyContext runs the Fig. 6(a) experiment. A testbench
// is labeled "correct" when it parses and the golden RTL passes every
// scenario (i.e. its checker computes right reference outputs on its
// own stimuli); the validators never see the label or the golden RTL.
// A cancelled context stops the per-problem workers within one
// simulation step batch and returns ctx.Err().
func CriteriaAccuracyContext(ctx context.Context, cfg CriteriaAccuracyConfig) ([]CriterionAccuracy, error) {
	if cfg.Profile == nil {
		cfg.Profile = llm.GPT4o()
	}
	if cfg.PerTask < 1 {
		cfg.PerTask = 10
	}
	if cfg.NR < 1 {
		cfg.NR = 20
	}
	if len(cfg.Problems) == 0 {
		cfg.Problems = dataset.All()
	}

	type labeled struct {
		verdicts map[string]bool // criterion -> "correct"
		correct  bool
	}

	// labelProblem builds one problem's corpus slice. Its randomness is
	// a private stream derived from (Seed, problem name), so problems
	// can be labeled concurrently, in any order, with identical output.
	// Each problem has a generator of its own, whose trace store lives
	// as long as the problem's labeling.
	labelProblem := func(p *dataset.Problem) ([]labeled, error) {
		gen := &autobench.AutoBench{Profile: cfg.Profile}
		r := rng.New(cfg.Seed).Child("criteria", p.Name).Rand()
		var acct llm.Accountant
		// One RTL group per task, shared by all criteria (as in the
		// paper's study) and elaborated once for every testbench.
		cands, err := validator.GenerateRTLGroup(p, cfg.Profile, cfg.NR, r, &acct)
		if err != nil {
			return nil, err
		}
		group, err := validator.NewGroup(ctx, p, cands)
		if err != nil {
			return nil, err
		}
		goldenDesign, err := p.Elaborate()
		if err != nil {
			return nil, err
		}
		out := make([]labeled, 0, cfg.PerTask)
		for k := 0; k < cfg.PerTask; k++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			// Each corpus entry draws fresh traits: the corpus spans
			// many independent AutoBench runs, as in the paper.
			trait := cfg.Profile.SampleTrait(p.Difficulty, p.Kind == dataset.SEQ, r)
			tb, err := gen.Generate(p, trait, r, &acct)
			if err != nil {
				return nil, err
			}
			lab := labeled{verdicts: map[string]bool{}}
			if tb.SyntaxOK() {
				if res, err := tb.RunAgainstDesignContext(ctx, goldenDesign); err == nil && res.Pass() {
					lab.correct = true
				} else if cerr := ctx.Err(); cerr != nil {
					return nil, cerr
				}
			}
			// Build the RS matrix once; judging per criterion is
			// pure matrix arithmetic.
			m, ok, err := validator.BuildMatrix(ctx, tb, group)
			if err != nil {
				return nil, err
			}
			for _, c := range validator.Criteria() {
				if !ok {
					lab.verdicts[c.Name] = false
					continue
				}
				lab.verdicts[c.Name] = c.Judge(m).Correct
			}
			out = append(out, lab)
		}
		return out, nil
	}

	var (
		perProblem = make([][]labeled, len(cfg.Problems))
		doneCount  int
		progressMu sync.Mutex
	)
	err := forEachOrdered(ctx, len(cfg.Problems), cfg.Workers, func(pi int, _ time.Time) error {
		labs, err := labelProblem(cfg.Problems[pi])
		if err != nil {
			return err
		}
		perProblem[pi] = labs
		if cfg.Progress != nil {
			progressMu.Lock()
			doneCount++
			if doneCount%26 == 0 {
				fmt.Fprintf(cfg.Progress, "criteria accuracy: %d/%d problems\n", doneCount, len(cfg.Problems))
			}
			progressMu.Unlock()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Deterministic assembly: concatenate in problem order.
	var corpus []labeled
	for _, labs := range perProblem {
		corpus = append(corpus, labs...)
	}

	var out []CriterionAccuracy
	for _, c := range validator.Criteria() {
		acc := CriterionAccuracy{Criterion: c.Name}
		var okTotal, okCorrect, okWrong int
		for _, lab := range corpus {
			hit := lab.verdicts[c.Name] == lab.correct
			acc.NTotal++
			if hit {
				okTotal++
			}
			if lab.correct {
				acc.NCorrect++
				if hit {
					okCorrect++
				}
			} else {
				acc.NWrong++
				if hit {
					okWrong++
				}
			}
		}
		acc.Total = ratio(okTotal, acc.NTotal)
		acc.CorrectTB = ratio(okCorrect, acc.NCorrect)
		acc.WrongTB = ratio(okWrong, acc.NWrong)
		out = append(out, acc)
	}
	return out, nil
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// RenderFig6a renders the accuracy study as text.
func RenderFig6a(rows []CriterionAccuracy) string {
	var sb strings.Builder
	sb.WriteString("Fig. 6(a): validation accuracy among validators\n")
	fmt.Fprintf(&sb, "%-12s %10s %14s %12s %8s\n", "Criterion", "Total", "Correct TBs", "Wrong TBs", "corpus")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-12s %9.2f%% %13.2f%% %11.2f%%   %d TBs (%d correct / %d wrong)\n",
			r.Criterion, r.Total*100, r.CorrectTB*100, r.WrongTB*100, r.NTotal, r.NCorrect, r.NWrong)
	}
	return sb.String()
}

// CriterionPipelineResult is one point of Fig. 6(b): the whole
// CorrectBench framework run under one validation criterion.
type CriterionPipelineResult struct {
	Criterion      string
	Eval2Ratio     float64
	TokensInPerTk  float64
	TokensOutPerTk float64
}

// CriterionPipelineContext runs one row of the Fig. 6(b) experiment:
// the whole framework (CorrectBench only) under cfg.Criterion.
func CriterionPipelineContext(ctx context.Context, cfg Config) (CriterionPipelineResult, error) {
	cfg.Methods = []Method{MethodCorrectBench}
	res, err := RunContext(ctx, cfg)
	if err != nil {
		return CriterionPipelineResult{}, err
	}
	in, outTok := res.AvgTokens(MethodCorrectBench)
	st := res.Stats(MethodCorrectBench, Groups()[0], autoeval.GradeEval2)
	return CriterionPipelineResult{
		Criterion:      cfg.Criterion.Name,
		Eval2Ratio:     st.Ratio,
		TokensInPerTk:  in,
		TokensOutPerTk: outTok,
	}, nil
}

// RenderFig6b renders the criterion pipeline study as text.
func RenderFig6b(rows []CriterionPipelineResult) string {
	var sb strings.Builder
	sb.WriteString("Fig. 6(b): CorrectBench performance with different validation criteria\n")
	fmt.Fprintf(&sb, "%-12s %12s %16s %17s\n", "Criterion", "Eval2 ratio", "input tok/task", "output tok/task")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-12s %11.2f%% %16.0f %17.0f\n",
			r.Criterion, r.Eval2Ratio*100, r.TokensInPerTk, r.TokensOutPerTk)
	}
	return sb.String()
}
