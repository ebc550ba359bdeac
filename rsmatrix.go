package correctbench

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"

	"correctbench/internal/llm"
	"correctbench/internal/mutate"
	"correctbench/internal/testbench"
	"correctbench/internal/validator"
	"correctbench/internal/verilog"
)

// RSMatrixSpec configures the Fig. 4 reproduction: RS matrices for a
// correct testbench and for one with an injected checker fault.
type RSMatrixSpec struct {
	Problem string `json:"problem"`
	Seed    int64  `json:"seed"`
	// RTLGroupSize is N_R (nil: paper's 20).
	RTLGroupSize *int `json:"rtl_group_size,omitempty"`
	// Workers bounds concurrent checker-fault probes (0: all CPUs;
	// the same fault is found either way).
	Workers int `json:"workers,omitempty"`
}

// RSMatrixReport is the rendered Fig. 4 panel pair.
type RSMatrixReport struct {
	// Clean is the rendered matrix and per-criterion verdicts of the
	// correct testbench.
	Clean string `json:"clean"`
	// Fault describes the injected checker fault; empty when no
	// observable fault was found within the probe budget.
	Fault string `json:"fault,omitempty"`
	// Wrong is the rendered panel for the faulty testbench ("" when
	// Fault is empty).
	Wrong string `json:"wrong,omitempty"`
}

// RSMatrix reproduces Fig. 4 for one task. Candidate checker faults
// are probed in waves of one attempt per worker, stopping at the
// first wave containing a hit; each attempt is an independent seeded
// derivation, so the winner is the same for any worker count.
func (c *Client) RSMatrix(ctx context.Context, spec RSMatrixSpec) (*RSMatrixReport, error) {
	probs, err := resolveProblems([]string{spec.Problem})
	if err != nil {
		return nil, err
	}
	p := probs[0]
	if err := checkNR(spec.RTLGroupSize); err != nil {
		return nil, err
	}
	nr := 20
	if spec.RTLGroupSize != nil {
		nr = *spec.RTLGroupSize
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	prof := llm.GPT4o()
	var acct llm.Accountant
	cands, err := validator.GenerateRTLGroup(p, prof, nr, rng, &acct)
	if err != nil {
		return nil, err
	}
	group, err := validator.NewGroup(ctx, p, cands)
	if err != nil {
		return nil, err
	}
	scs, err := testbench.GenerateScenarios(p, rng, testbench.Coverage{Scenarios: 10, Steps: 10, Corners: true})
	if err != nil {
		return nil, err
	}

	clean := &testbench.Testbench{Problem: p, Scenarios: scs, CheckerSource: p.Source, CheckerTop: p.Top, CheckerSticky: -1}
	rep := &RSMatrixReport{}
	if rep.Clean, err = renderPanel(ctx, "CORRECT testbench (golden checker)", clean, group); err != nil {
		return nil, err
	}

	golden, err := p.Module()
	if err != nil {
		return nil, err
	}
	const attempts = 50
	type found struct {
		tb   *testbench.Testbench
		muts []mutate.Mutation
	}
	w := spec.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	probe := func(attempt int64) *found {
		mod, muts, _ := mutate.Mutate(golden, rand.New(rand.NewSource(spec.Seed+attempt)), 1)
		if len(muts) == 0 {
			return nil
		}
		tb := &testbench.Testbench{Problem: p, Scenarios: scs, CheckerSource: verilog.PrintModule(mod), CheckerTop: p.Top, CheckerSticky: -1}
		if res, err := tb.RunAgainstSourceContext(ctx, p.Source, p.Top); err != nil || res.Pass() {
			return nil // fault not observable (or the probe was cancelled)
		}
		return &found{tb: tb, muts: muts}
	}
	for base := int64(0); base < attempts; base += int64(w) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		end := base + int64(w)
		if end > attempts {
			end = attempts
		}
		wave := make([]*found, end-base)
		var wg sync.WaitGroup
		for i := range wave {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				wave[i] = probe(base + int64(i))
			}(i)
		}
		wg.Wait()
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for _, f := range wave {
			if f == nil {
				continue
			}
			rep.Fault = fmt.Sprintf("%v", f.muts)
			if rep.Wrong, err = renderPanel(ctx, "WRONG testbench", f.tb, group); err != nil {
				return nil, err
			}
			return rep, nil
		}
	}
	return rep, nil
}

// renderPanel renders one Fig. 4 panel: the RS matrix plus every
// criterion's verdict.
func renderPanel(ctx context.Context, title string, tb *testbench.Testbench, group *validator.Group) (string, error) {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s ==\n", title)
	v := &validator.Validator{Criterion: validator.Wrong70}
	m, ok, err := v.BuildMatrixContext(ctx, tb, group)
	if err != nil {
		return "", err
	}
	if !ok {
		sb.WriteString("testbench itself is broken\n")
		return sb.String(), nil
	}
	sb.WriteString(m.Render())
	for _, c := range validator.Criteria() {
		rep := (&validator.Validator{Criterion: c}).Judge(m)
		fmt.Fprintf(&sb, "%-12s verdict: correct=%v wrong=%v uncertain=%v\n", c.Name, rep.Correct, rep.Wrong, rep.Uncertain)
	}
	return sb.String(), nil
}
