package autoeval

import (
	"context"
	"sync"
	"testing"

	"correctbench/internal/dataset"
	"correctbench/internal/testbench"
)

// TestConcurrentEvaluate hammers one shared Evaluator from many
// goroutines — racing on the same problems' fixtures as well as
// across different problems — and checks that every goroutine sees
// the grades a lone sequential evaluator computes. Run under -race
// (CI does) this also proves the per-fixture build locking is sound.
func TestConcurrentEvaluate(t *testing.T) {
	names := []string{"adder8", "cnt8", "det101", "mux4_w4"}

	// Sequential reference grades from an identically seeded evaluator.
	ref := NewEvaluator(9)
	want := map[string]Grade{}
	for _, name := range names {
		p := dataset.ByName(name)
		tb, err := ref.GoldenTestbench(p)
		if err != nil {
			t.Fatal(err)
		}
		g, err := ref.EvaluateContext(context.Background(), tb)
		if err != nil {
			t.Fatal(err)
		}
		want[name] = g
	}

	e := NewEvaluator(9)
	const goroutinesPerProblem = 8
	var wg sync.WaitGroup
	errc := make(chan error, len(names)*goroutinesPerProblem)
	for _, name := range names {
		for g := 0; g < goroutinesPerProblem; g++ {
			wg.Add(1)
			go func(name string) {
				defer wg.Done()
				p := dataset.ByName(name)
				// GoldenTestbench and Evaluate both race into the
				// same cold fixture; the build must happen once and
				// everyone must see the finished fixture.
				tb, err := e.GoldenTestbench(p)
				if err != nil {
					errc <- err
					return
				}
				grade, err := e.EvaluateContext(context.Background(), tb)
				if err != nil {
					errc <- err
					return
				}
				if grade != want[name] {
					t.Errorf("%s: concurrent grade %s, sequential %s", name, grade, want[name])
				}
			}(name)
		}
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

// TestConcurrentEvaluateDistinctTestbenches evaluates worker-local
// testbenches (the harness's actual access pattern) concurrently
// against a shared evaluator.
func TestConcurrentEvaluateDistinctTestbenches(t *testing.T) {
	e := NewEvaluator(11)
	p := dataset.ByName("adder8")
	golden, err := e.GoldenTestbench(p)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(broken bool) {
			defer wg.Done()
			// Each goroutine owns its testbench value, like each
			// harness cell owns the testbench it generated.
			tb := &testbench.Testbench{
				Problem:       p,
				Scenarios:     golden.Scenarios,
				CheckerSource: golden.CheckerSource,
				CheckerTop:    golden.CheckerTop,
				CheckerSticky: -1,
				DriverSource:  golden.DriverSource,
			}
			want := GradeEval2
			if broken {
				tb.DriverSource = "module ("
				want = GradeFailed
			}
			g, err := e.EvaluateContext(context.Background(), tb)
			if err != nil {
				t.Errorf("evaluate: %v", err)
				return
			}
			if g != want {
				t.Errorf("grade = %s, want %s", g, want)
			}
		}(i%2 == 1)
	}
	wg.Wait()
}
