package correctbench

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

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

// RSMatrix reproduces Fig. 4 for one task. Up to 50 candidate checker
// faults, each an independent seeded derivation, are probed in order
// against the golden RTL; the first observable one is the fault shown.
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
	design, err := p.Elaborate()
	if err != nil {
		return nil, err
	}
	// Candidate checker faults are probed in attempt order, each on a
	// copy of the clean testbench that shares its trace store, so the
	// golden DUT is recorded once for every probe.
	const attempts = 50
	for attempt := int64(0); attempt < attempts; attempt++ {
		mod, muts, plan := mutate.Mutate(golden, rand.New(rand.NewSource(spec.Seed+attempt)), 1)
		if len(muts) == 0 {
			continue
		}
		tb := clean.WithChecker(verilog.PrintModule(mod), plan, -1)
		res, err := tb.RunAgainstDesignContext(ctx, design)
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err != nil || res.Pass() {
			continue // fault not observable
		}
		rep.Fault = fmt.Sprintf("%v", muts)
		if rep.Wrong, err = renderPanel(ctx, "WRONG testbench", tb, group); err != nil {
			return nil, err
		}
		return rep, nil
	}
	return rep, nil
}

// renderPanel renders one Fig. 4 panel: the RS matrix plus every
// criterion's verdict.
func renderPanel(ctx context.Context, title string, tb *testbench.Testbench, group *validator.Group) (string, error) {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s ==\n", title)
	m, ok, err := validator.BuildMatrix(ctx, tb, group)
	if err != nil {
		return "", err
	}
	if !ok {
		sb.WriteString("testbench itself is broken\n")
		return sb.String(), nil
	}
	sb.WriteString(m.Render())
	for _, c := range validator.Criteria() {
		rep := c.Judge(m)
		fmt.Fprintf(&sb, "%-12s verdict: correct=%v wrong=%v uncertain=%v\n", c.Name, rep.Correct, rep.Wrong, rep.Uncertain)
	}
	return sb.String(), nil
}
