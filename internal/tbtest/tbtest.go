// Package tbtest holds the reference oracle for testbench runs, which
// only tests import: the DUT and the checker simulated side by side on
// the interpreter (sim.Instance) and compared step by step. Every
// recorded or batched run must reproduce its verdicts and error text.
package tbtest

import (
	"context"
	"fmt"

	"correctbench/internal/dataset"
	"correctbench/internal/logic"
	"correctbench/internal/sim"
)

// Scenario is one scenario's stimulus; Index names it in errors. Each
// step drives the inputs in Names to their values in Inputs, in order.
type Scenario struct {
	Index int
	Steps []Step
}

type Step struct {
	Names  []string
	Inputs map[string]uint64
}

// RunLive simulates dut and the checker chk side by side over p's
// scenarios. Each scenario starts both from reset with their inputs
// zeroed and, for a SEQ problem with a reset, one reset cycle. Each
// step drives and settles the DUT and then the checker, and compares
// the DUT's output ports with the checker's before and, for a SEQ
// problem, after the clock edge. It returns the per-scenario verdicts,
// or the first error prefixed with the side that failed ("dut:" or
// "checker:"). ctx is bound to both sides.
func RunLive(ctx context.Context, p *dataset.Problem, dut, chk *sim.Design, scenarios []Scenario) ([]bool, error) {
	sides := [2]*sim.Instance{sim.NewInstance(dut), sim.NewInstance(chk)}
	each := func(f func(in *sim.Instance) error, format string, args ...any) error {
		for s, in := range sides {
			if err := f(in); err != nil {
				side := [2]string{"dut", "checker"}[s]
				return fmt.Errorf("%s: %s: %w", side, fmt.Sprintf(format, args...), err)
			}
		}
		return nil
	}
	same := func() bool {
		for _, port := range dut.Ports {
			if port.Dir == sim.Out {
				dv, err1 := sides[0].Get(port.Name)
				cv, err2 := sides[1].Get(port.Name)
				if err1 != nil || err2 != nil || !dv.SameValue(cv) {
					return false
				}
			}
		}
		return true
	}
	sides[0].BindContext(ctx)
	sides[1].BindContext(ctx)
	pass := make([]bool, len(scenarios))
	for i, sc := range scenarios {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := each(func(in *sim.Instance) error {
			in.Reset()
			if err := in.ZeroInputs(); err != nil || p.Kind != dataset.SEQ || p.Reset == "" {
				return err
			}
			if err := in.SetInputUint(p.Reset, 1); err != nil {
				return err
			}
			if err := in.Tick(p.Clock); err != nil {
				return err
			}
			return in.SetInputUint(p.Reset, 0)
		}, "scenario %d init", sc.Index); err != nil {
			return nil, err
		}
		pass[i] = true
		for si, st := range sc.Steps {
			if err := each(func(in *sim.Instance) error {
				for _, name := range st.Names {
					port := in.Design().Port(name)
					if port == nil {
						return fmt.Errorf("stimulus for unknown port %q", name)
					}
					if err := in.SetInput(name, logic.FromUint64(port.Width, st.Inputs[name])); err != nil {
						return err
					}
				}
				return in.Settle()
			}, "scenario %d step %d", sc.Index, si); err != nil {
				return nil, err
			}
			pass[i] = same() && pass[i]
			if p.Kind == dataset.SEQ {
				if err := each(func(in *sim.Instance) error { return in.Tick(p.Clock) }, "scenario %d step %d tick", sc.Index, si); err != nil {
					return nil, err
				}
				pass[i] = same() && pass[i]
			}
		}
	}
	return pass, nil
}
