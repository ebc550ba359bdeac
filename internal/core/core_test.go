package core

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"

	"correctbench/internal/autoeval"
	"correctbench/internal/dataset"
	"correctbench/internal/llm"
)

func TestDefaultOptionsMatchPaper(t *testing.T) {
	opt := DefaultOptions(llm.GPT4o())
	if opt.MaxCorrections != 3 || opt.MaxReboots != 10 || opt.NR != 20 {
		t.Errorf("defaults = %+v, want I_C=3 I_R=10 N_R=20", opt)
	}
	if opt.Criterion.Name != "70%-wrong" {
		t.Errorf("default criterion = %s", opt.Criterion.Name)
	}
}

func TestRunTerminatesWithinBudgets(t *testing.T) {
	opt := DefaultOptions(llm.GPT4o())
	for _, name := range []string{"mux2_w4", "cnt8", "det101"} {
		p := dataset.ByName(name)
		rng := rand.New(rand.NewSource(1))
		res, err := RunContext(context.Background(), p, opt, rng)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		tr := res.Trace
		if tr.Reboots > opt.MaxReboots {
			t.Errorf("%s: reboots %d exceed budget", name, tr.Reboots)
		}
		if len(tr.Events) == 0 || tr.Events[len(tr.Events)-1].Action != ActionPass {
			t.Errorf("%s: trace does not end with Pass: %v", name, tr.Events)
		}
		if res.Testbench == nil {
			t.Fatalf("%s: no final testbench", name)
		}
	}
}

func TestRunRequiresProfile(t *testing.T) {
	if _, err := RunContext(context.Background(), dataset.ByName("dff"), Options{}, rand.New(rand.NewSource(1))); err == nil {
		t.Error("missing profile accepted")
	}
}

func TestValidatedPassesAreUsuallyEval2(t *testing.T) {
	// Validated final testbenches should mostly be genuinely good:
	// this is the whole point of the framework.
	opt := DefaultOptions(llm.GPT4o())
	eval := autoeval.NewEvaluator(99)
	validated, eval2 := 0, 0
	rng := rand.New(rand.NewSource(7))
	for _, name := range []string{"adder8", "alu4", "cnt8", "sipo8", "mux4_w4", "parity_even8", "cmp_full4", "edge_rise"} {
		p := dataset.ByName(name)
		res, err := RunContext(context.Background(), p, opt, rng)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Trace.FinalValidated {
			continue
		}
		validated++
		g, err := eval.EvaluateContext(context.Background(), res.Testbench)
		if err != nil {
			t.Fatal(err)
		}
		if g == autoeval.GradeEval2 {
			eval2++
		}
	}
	if validated == 0 {
		t.Fatal("no task ended with a validated pass")
	}
	if eval2*2 < validated {
		t.Errorf("only %d/%d validated passes reach Eval2", eval2, validated)
	}
}

func TestTraceTokensAccumulate(t *testing.T) {
	opt := DefaultOptions(llm.GPT4o())
	p := dataset.ByName("det1101") // hard SEQ: likely corrections/reboots
	rng := rand.New(rand.NewSource(3))
	res, err := RunContext(context.Background(), p, opt, rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace.Tokens.In == 0 || res.Trace.Tokens.Out == 0 {
		t.Error("no tokens recorded")
	}
	// The RTL group alone costs 20 calls.
	if res.Trace.Tokens.Calls < 20 {
		t.Errorf("calls = %d, want >= 20", res.Trace.Tokens.Calls)
	}
}

func TestDeterminismUnderSameSeed(t *testing.T) {
	opt := DefaultOptions(llm.GPT4o())
	p := dataset.ByName("cnt4")
	r1, err := RunContext(context.Background(), p, opt, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunContext(context.Background(), p, opt, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	if r1.Trace.Corrections != r2.Trace.Corrections || r1.Trace.Reboots != r2.Trace.Reboots {
		t.Errorf("non-deterministic traces: %+v vs %+v", r1.Trace, r2.Trace)
	}
	if r1.Testbench.CheckerSource != r2.Testbench.CheckerSource {
		t.Error("non-deterministic final checker")
	}
}

func TestCorrectorShapedImpliesValidated(t *testing.T) {
	opt := DefaultOptions(llm.GPT4o())
	rng := rand.New(rand.NewSource(11))
	for _, p := range dataset.OfKind(dataset.SEQ)[:12] {
		res, err := RunContext(context.Background(), p, opt, rng)
		if err != nil {
			t.Fatal(err)
		}
		if res.Trace.CorrectorShaped && !res.Trace.FinalValidated {
			t.Errorf("%s: corrector credited without validated pass", p.Name)
		}
	}
}

// pollCancel is a context whose Err reports context.Canceled from its
// n-th poll on, cancelling a run deterministically at a chosen point.
type pollCancel struct {
	context.Context
	done chan struct{} // never closed; non-nil so the simulator polls Err
	left atomic.Int64
}

func (c *pollCancel) Done() <-chan struct{} { return c.done }

func (c *pollCancel) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestBatchGroupCancellation cancels a task while its RTL group is
// being elaborated, at the first validation round, and at later
// points of the run: every cancelled run returns the context's error
// and no result, and a run the cancellation misses is identical to
// an uncancelled one.
func TestBatchGroupCancellation(t *testing.T) {
	opt := DefaultOptions(llm.GPT4o())
	p := dataset.ByName("cnt8")
	ref, err := RunContext(context.Background(), p, opt, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	var points []int64
	for n := int64(0); n <= int64(opt.NR)+2; n++ {
		points = append(points, n) // every poll of the group build and the first round
	}
	for n := int64(40); n < 1<<20; n *= 3 {
		points = append(points, n)
	}
	for _, n := range points {
		ctx := &pollCancel{Context: context.Background(), done: make(chan struct{})}
		ctx.left.Store(n)
		res, err := RunContext(ctx, p, opt, rand.New(rand.NewSource(3)))
		if err != nil {
			if !errors.Is(err, context.Canceled) || res != nil {
				t.Fatalf("cancelled after %d polls: result %v, err %v", n, res, err)
			}
			continue
		}
		if !reflect.DeepEqual(res.Trace.Events, ref.Trace.Events) {
			t.Fatalf("run missed by a cancellation after %d polls diverged: %v vs %v", n, res.Trace.Events, ref.Trace.Events)
		}
		return
	}
	t.Fatal("no run completed; the sweep never passed the end of the task")
}
