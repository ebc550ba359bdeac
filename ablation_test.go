package correctbench

// Ablation benchmarks for the design choices DESIGN.md calls out:
// the size of the imperfect-RTL group (N_R = 20 in the paper) and the
// 25%-green-row override of the 70%-wrong criterion. Each benchmark
// reports validation accuracy on a small labeled corpus through
// b.ReportMetric, so `go test -bench=Ablation` doubles as an ablation
// study.

import (
	"context"
	"math/rand"
	"testing"

	"correctbench/internal/autobench"
	"correctbench/internal/dataset"
	"correctbench/internal/llm"
	"correctbench/internal/testbench"
	"correctbench/internal/validator"
)

// ablationCorpus builds labeled testbenches and per-task RTL groups.
type ablationCorpus struct {
	entries []ablationEntry
}

type ablationEntry struct {
	tb      *testbench.Testbench
	group   *validator.Group
	correct bool
}

func buildAblationCorpus(b *testing.B, nr int, seed int64) *ablationCorpus {
	b.Helper()
	prof := llm.GPT4o()
	gen := &autobench.AutoBench{Profile: prof}
	corpus := &ablationCorpus{}
	names := []string{"adder8", "alu4", "cnt8", "det101", "sipo8", "prio_enc8", "timer8", "mux4_w4"}
	for pi, name := range names {
		p := dataset.ByName(name)
		rng := rand.New(rand.NewSource(seed + int64(pi)*31))
		var acct llm.Accountant
		cands, err := validator.GenerateRTLGroup(p, prof, nr, rng, &acct)
		if err != nil {
			b.Fatal(err)
		}
		group, err := validator.NewGroup(context.Background(), p, cands)
		if err != nil {
			b.Fatal(err)
		}
		goldenDesign, err := p.Elaborate()
		if err != nil {
			b.Fatal(err)
		}
		for k := 0; k < 4; k++ {
			trait := prof.SampleTrait(p.Difficulty, p.Kind == dataset.SEQ, rng)
			tb, err := gen.Generate(p, trait, rng, &acct)
			if err != nil {
				b.Fatal(err)
			}
			e := ablationEntry{tb: tb, group: group}
			if tb.SyntaxOK() {
				if res, err := tb.RunAgainstDesignContext(context.Background(), goldenDesign); err == nil && res.Pass() {
					e.correct = true
				}
			}
			corpus.entries = append(corpus.entries, e)
		}
	}
	return corpus
}

func (c *ablationCorpus) accuracy(b *testing.B, crit validator.Criterion) float64 {
	hit := 0
	for _, e := range c.entries {
		rep, err := crit.Validate(context.Background(), e.tb, e.group)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Correct == e.correct {
			hit++
		}
	}
	return float64(hit) / float64(len(c.entries))
}

// BenchmarkAblationNRGroupSize sweeps the imperfect-RTL group size.
// The paper fixes N_R = 20; the sweep shows accuracy saturating as the
// group grows (columns become statistically reliable).
func BenchmarkAblationNRGroupSize(b *testing.B) {
	for _, nr := range []int{5, 10, 20, 40} {
		b.Run(itoa(nr), func(b *testing.B) {
			var acc float64
			for i := 0; i < b.N; i++ {
				corpus := buildAblationCorpus(b, nr, int64(100+i))
				acc = corpus.accuracy(b, validator.Wrong70)
			}
			b.ReportMetric(acc*100, "val-acc-%")
		})
	}
}

// BenchmarkAblationGreenRowRule compares the shipped 70%-wrong
// criterion against the same threshold without the 25%-green-row
// override (the paper's motivation for the rule: without it, correct
// testbenches over buggy RTL groups are misflagged).
func BenchmarkAblationGreenRowRule(b *testing.B) {
	with := validator.Wrong70
	without := validator.Criterion{Name: "70%-no-green-row", WrongFrac: 0.7}
	for _, cfg := range []struct {
		name string
		crit validator.Criterion
	}{{"with-green-row", with}, {"without-green-row", without}} {
		b.Run(cfg.name, func(b *testing.B) {
			var acc float64
			for i := 0; i < b.N; i++ {
				corpus := buildAblationCorpus(b, 20, int64(200+i))
				acc = corpus.accuracy(b, cfg.crit)
			}
			b.ReportMetric(acc*100, "val-acc-%")
		})
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var digits []byte
	for n > 0 {
		digits = append([]byte{byte('0' + n%10)}, digits...)
		n /= 10
	}
	return string(digits)
}
