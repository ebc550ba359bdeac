package testbench

import (
	"context"
	"fmt"

	"correctbench/internal/dataset"
	"correctbench/internal/logic"
	"correctbench/internal/obs"
	"correctbench/internal/sim"
)

// The interleaved interpreter runner: the DUT and the checker simulated
// side by side on the interpreter, compared step by step. It is the
// reference oracle every batched run must reproduce
// (TestBatchRunMatchesScalar, TestBatchRunWholesaleFallback).

// runLive simulates the DUT and the checker side by side on the
// interpreter, the reference every batched run must reproduce. The
// context is bound to both instances, so a cancellation takes effect
// at the next propagation wave. The instances are allocated once and
// pooled across scenarios with an in-place Reset.
func (tb *Testbench) runLive(ctx context.Context, dutDesign *sim.Design) (*RunResult, error) {
	checkerDesign, err := tb.checkerDesignContext(ctx)
	if err != nil {
		return nil, fmt.Errorf("checker: %w", err)
	}
	defer obs.Time(ctx, obs.PhaseRun)()
	res := &RunResult{ScenarioPass: make([]bool, len(tb.Scenarios))}
	outs := outputPorts(dutDesign)
	dut := sim.NewInstance(dutDesign)
	chk := sim.NewInstance(checkerDesign)
	dut.BindContext(ctx)
	chk.BindContext(ctx)
	for i, sc := range tb.Scenarios {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if i > 0 {
			dut.Reset()
			chk.Reset()
		}
		pass, err := tb.runScenario(sc, dut, chk, outs)
		if err != nil {
			return nil, err
		}
		res.ScenarioPass[i] = pass
	}
	return res, nil
}

// runScenario runs one scenario on freshly reset DUT and checker
// instances and compares sampled outputs step by step. Errors are
// prefixed "dut:" or "checker:" so the validator can attribute
// simulation failures to the right side.
func (tb *Testbench) runScenario(sc Scenario, dut, chk *sim.Instance, outs []string) (bool, error) {
	p := tb.Problem
	sides := []struct {
		label string
		inst  *sim.Instance
	}{{"dut", dut}, {"checker", chk}}

	for _, side := range sides {
		if err := tb.initScenario(side.inst); err != nil {
			return false, fmt.Errorf("%s: scenario %d init: %w", side.label, sc.Index, err)
		}
	}
	pass := true
	for si, st := range sc.Steps {
		for _, side := range sides {
			if err := applyStep(side.inst, st); err != nil {
				return false, fmt.Errorf("%s: scenario %d step %d: %w", side.label, sc.Index, si, err)
			}
		}
		// Sample combinational/Mealy outputs before the clock edge.
		if !sameOutputs(dut, chk, outs) {
			pass = false
		}
		if p.Kind == dataset.SEQ {
			for _, side := range sides {
				if err := side.inst.Tick(p.Clock); err != nil {
					return false, fmt.Errorf("%s: scenario %d step %d tick: %w", side.label, sc.Index, si, err)
				}
			}
			// Sample registered outputs after the edge as well.
			if !sameOutputs(dut, chk, outs) {
				pass = false
			}
		}
	}
	return pass, nil
}

func (tb *Testbench) initScenario(inst *sim.Instance) error {
	p := tb.Problem
	if err := inst.ZeroInputs(); err != nil {
		return err
	}
	if p.Kind == dataset.SEQ && p.Reset != "" {
		if err := inst.SetInputUint(p.Reset, 1); err != nil {
			return err
		}
		if err := inst.Tick(p.Clock); err != nil {
			return err
		}
		if err := inst.SetInputUint(p.Reset, 0); err != nil {
			return err
		}
	}
	return nil
}

// applyStep drives a step's stimuli in sorted port-name order. The
// order matters: SetInput propagates after every input, and designs
// with internal feedback (notably mutated RTLs, which can latch) can
// settle differently depending on which input moves first. Iterating
// the Inputs map directly would inherit Go's randomized map order and
// make such rows of the RS matrix flicker between runs. The sorted
// list is precomputed per step at generation time (SortedNames), not
// re-sorted on every application.
func applyStep(inst *sim.Instance, st Step) error {
	for _, name := range st.SortedNames() {
		port := inst.Design().Port(name)
		if port == nil {
			return fmt.Errorf("stimulus for unknown port %q", name)
		}
		if err := inst.SetInput(name, logic.FromUint64(port.Width, st.Inputs[name])); err != nil {
			return err
		}
	}
	return inst.Settle()
}

func sameOutputs(dut, chk *sim.Instance, outs []string) bool {
	for _, o := range outs {
		dv, err1 := dut.Get(o)
		cv, err2 := chk.Get(o)
		if err1 != nil || err2 != nil {
			return false
		}
		if !dv.SameValue(cv) {
			return false
		}
	}
	return true
}
