package testbench

// Batched testbench runs: N DUT variants (typically mutants of one
// golden design, or a single DUT as one lane) advance through every
// scenario together on a single sim.BatchInstance, sharing one checker
// simulation. The checker's trajectory is DUT-independent, so it runs
// once per testbench on a one-lane batch program — its output samples
// are recorded into a trace (batchTrace) the first time and replayed
// for every run — and the DUT side shares one compiled batch program
// across all lanes.
//
// With earlyExit=false a lane's outcome is identical to the
// interpreter runner (runLive) for the same design: the same
// ScenarioPass vector and an error exactly when the interpreter run
// errors, with the same text (TestBatchRunMatchesScalar asserts this
// over mutated DUTs). With earlyExit=true, lanes stop simulating once
// a scenario has failed; the overall Pass()/error verdict is unchanged
// but later ScenarioPass entries stay false — the mode AutoEval's kill
// checks use.

import (
	"context"
	"fmt"

	"correctbench/internal/dataset"
	"correctbench/internal/logic"
	"correctbench/internal/obs"
	"correctbench/internal/sim"
)

// BatchOutcome is one DUT's result from a batched run: exactly one of
// Res and Err is set, mirroring RunAgainstDesignContext's return.
type BatchOutcome struct {
	Res *RunResult
	Err error
}

// checkerTrace is one complete checker simulation, recorded sample by
// sample in the exact order the interpreter runner interleaves the
// checker with a DUT. Samples hold the live vectors (the engine never
// mutates a stored vector in place — writes install fresh vectors — so
// no clone is needed) and are only ever read during replay.
type checkerTrace struct {
	outs      []string // output port order of every sample row
	scenarios []scenarioTrace
	// live marks a checker that is not recorded: it does not
	// batch-compile, or sim.DefaultEngine selects the interpreter.
	// Every run then takes the interpreter runner (runLive).
	live bool
}

type scenarioTrace struct {
	pre  [][]traceSample // [step][output], sampled before the clock edge
	post [][]traceSample // [step][output], sampled after the edge (SEQ)
	// fail is the checker-side simulation error that ended this
	// scenario, if any; every run errors at the same point, so the
	// trace stops here (later scenarios are unreachable).
	fail *traceFail
}

type traceFail struct {
	step  int // step index, -1 for scenario init
	phase int // 0 init, 1 step, 2 tick
	err   error
}

type traceSample struct {
	val logic.Vector
	ok  bool // false when the checker had no readable value (Get error)
}

// liveTrace is the trace of every checker that is not recorded.
var liveTrace = &checkerTrace{live: true}

// batchTrace records the checker once over all scenarios as a one-lane
// batch and caches the trace on the testbench, keyed on checker source
// and the output port list being compared. Only checker elaboration
// failures are returned as errors; simulation failures are part of the
// trace (they decide run outcomes, exactly as a live checker would).
// A checker the batch compiler rejects yields liveTrace, as does every
// call while sim.DefaultEngine is sim.EngineInterp — the one place the
// process-wide reference switch is read.
//
// ctx is used for observation only: a cold build records the checker's
// sim_elaborate/sim_compile spans and a sim_run span for the recording
// on ctx's obs collector, but is never cancelled by it — trace
// contents must not depend on a caller's cancellation.
func (tb *Testbench) batchTrace(ctx context.Context, outs []string) (*checkerTrace, error) {
	if sim.DefaultEngine == sim.EngineInterp {
		return liveTrace, nil
	}
	if tb.cachedTrace != nil && tb.cachedTraceSrc == tb.CheckerSource &&
		(tb.cachedTrace.live || sameStrings(tb.cachedTrace.outs, outs)) {
		return tb.cachedTrace, nil
	}
	ctx = context.WithoutCancel(ctx)
	cd, err := tb.checkerDesignContext(ctx)
	if err != nil {
		return nil, err
	}
	tr := liveTrace
	if prog, err := sim.CompileBatch(cd, []*sim.Design{cd}); err == nil && prog.Lanes() == 1 {
		tr = tb.recordTrace(ctx, prog, outs)
	}
	tb.cachedTrace = tr
	tb.cachedTraceSrc = tb.CheckerSource
	return tr, nil
}

// recordTrace simulates the checker's one-lane program over every
// scenario, sampling its outputs where the interpreter runner
// compares them. A lane error ends the recording at its (step, phase).
func (tb *Testbench) recordTrace(ctx context.Context, prog *sim.BatchProgram, outs []string) *checkerTrace {
	defer obs.Time(ctx, obs.PhaseRun)()
	p := tb.Problem
	chk := sim.NewBatchInstance(prog)
	// simErr folds the lane's error into a shared one, so each call
	// site sees the first error the interpreter would have returned.
	simErr := func(err error) error {
		if err != nil {
			return err
		}
		return chk.LaneErr(0)
	}
	tr := &checkerTrace{outs: outs}
	for i, sc := range tb.Scenarios {
		if i > 0 {
			chk.Reset()
		}
		st := scenarioTrace{}
		if err := simErr(tb.initScenarioBatch(chk)); err != nil {
			st.fail = &traceFail{step: -1, phase: 0, err: err}
			tr.scenarios = append(tr.scenarios, st)
			break
		}
		for si, step := range sc.Steps {
			if err := simErr(applyStepBatch(chk, step)); err != nil {
				st.fail = &traceFail{step: si, phase: 1, err: err}
				break
			}
			st.pre = append(st.pre, sampleOutputs(chk, outs))
			if p.Kind == dataset.SEQ {
				if err := simErr(chk.Tick(p.Clock)); err != nil {
					st.fail = &traceFail{step: si, phase: 2, err: err}
					break
				}
				st.post = append(st.post, sampleOutputs(chk, outs))
			}
		}
		tr.scenarios = append(tr.scenarios, st)
		if st.fail != nil {
			break
		}
	}
	return tr
}

// WarmBatchTrace elaborates the checker and records its trace for runs
// against DUTs sharing base's port list, so a testbench warmed under
// its owner's control — e.g. inside autoeval's once-guarded fixture
// build — is afterwards read-only and safe for concurrent runs.
func (tb *Testbench) WarmBatchTrace(base *sim.Design) error {
	if _, err := tb.checkerDesignContext(context.Background()); err != nil {
		return err
	}
	_, err := tb.batchTrace(context.Background(), outputPorts(base))
	return err
}

func sampleOutputs(chk *sim.BatchInstance, outs []string) []traceSample {
	samples := make([]traceSample, len(outs))
	for i, o := range outs {
		v, err := chk.Get(o, 0)
		samples[i] = traceSample{val: v, ok: err == nil}
	}
	return samples
}

func sameStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// RunBatchAgainstDesignsContext runs every DUT design against the
// testbench in one batched pass. base is the design the batch programs
// are compiled against (the golden design the duts are mutants of; any
// dut may alias it). Compilation is split (sim.CompileBatchSplit):
// static variants share a levelized program, the rest batch under a
// separate event-driven program. DUTs every program rejects — and
// every DUT, when the base or the checker cannot batch-compile — fall
// back to individual interpreter runs, so the result is total: out[i]
// always corresponds to duts[i]. The returned error is non-nil only on
// context cancellation.
func (tb *Testbench) RunBatchAgainstDesignsContext(ctx context.Context, base *sim.Design, duts []*sim.Design, earlyExit bool) ([]BatchOutcome, error) {
	out := make([]BatchOutcome, len(duts))
	trace, err := tb.batchTrace(ctx, outputPorts(base))
	if err != nil {
		err = fmt.Errorf("checker: %w", err)
		for i := range out {
			out[i].Err = err
		}
		return out, nil
	}
	if !trace.live {
		if progs, idxs, err := sim.CompileBatchSplit(base, duts); err == nil {
			return out, tb.runBatchPrograms(ctx, progs, idxs, trace, out, earlyExit)
		}
	}
	// Wholesale fallback: the base or the checker cannot batch-compile.
	for i := range duts {
		if err := ctx.Err(); err != nil {
			return out, err
		}
		res, err := tb.runLive(ctx, duts[i])
		out[i] = BatchOutcome{Res: res, Err: err}
	}
	return out, nil
}

// RunBatchProgramsContext is RunBatchAgainstDesignsContext for a
// precompiled program set — typically the (programs, index lists)
// pair from sim.CompileBatchSplit — run in one batched pass: callers
// that run the same DUT set repeatedly (AutoEval's mutant fixtures,
// the validator's RTL group) compile once and skip the per-call
// compile. idx[k][i] gives the outcome slot of progs[k]'s i-th
// variant; every program must share the same base design. A variant
// no program accepted — every variant, when the checker does not
// batch-compile — falls back to an interpreter run, so outcomes are
// total over the indexed variants.
func (tb *Testbench) RunBatchProgramsContext(ctx context.Context, progs []*sim.BatchProgram, idx [][]int, earlyExit bool) ([]BatchOutcome, error) {
	if len(progs) == 0 {
		return nil, nil
	}
	n := 0
	for _, ix := range idx {
		for _, vi := range ix {
			if vi >= n {
				n = vi + 1
			}
		}
	}
	out := make([]BatchOutcome, n)
	trace, err := tb.batchTrace(ctx, outputPorts(progs[0].Base()))
	if err != nil {
		err = fmt.Errorf("checker: %w", err)
		for i := range out {
			out[i].Err = err
		}
		return out, nil
	}
	return out, tb.runBatchPrograms(ctx, progs, idx, trace, out, earlyExit)
}

// runBatchPrograms fills out by running every program's lanes and, for
// variants no program accepted, individual interpreter fallbacks. The
// returned error is non-nil only on context cancellation.
func (tb *Testbench) runBatchPrograms(ctx context.Context, progs []*sim.BatchProgram, idxs [][]int, trace *checkerTrace, out []BatchOutcome, earlyExit bool) error {
	defer obs.Time(ctx, obs.PhaseRun)()
	// A variant rejected by one program may hold a lane in another
	// (CompileBatchSplit routes non-static variants to the second,
	// event-driven program); only variants no program accepted — or
	// all of them, against a live checker — run on the interpreter.
	handled := make([]bool, len(out))
	dutOf := make([]*sim.Design, len(out))
	for k, p := range progs {
		vs := p.Variants()
		for i := range vs {
			vi := idxs[k][i]
			if dutOf[vi] == nil {
				dutOf[vi] = vs[i]
			}
			if !trace.live && p.VariantLane(i) >= 0 {
				handled[vi] = true
			}
		}
	}
	for vi, d := range dutOf {
		if handled[vi] || d == nil {
			continue
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		res, err := tb.runLive(ctx, d)
		out[vi] = BatchOutcome{Res: res, Err: err}
	}
	if trace.live {
		return nil
	}
	for k, p := range progs {
		if p.Lanes() == 0 {
			continue
		}
		if err := tb.runBatchLanes(ctx, p, idxs[k], trace, out, earlyExit); err != nil {
			return err
		}
	}
	return nil
}

// runBatchLanes runs one program's accepted lanes together and
// scatters their outcomes to out via idx. The returned error is
// non-nil only on context cancellation.
func (tb *Testbench) runBatchLanes(ctx context.Context, prog *sim.BatchProgram, idx []int, trace *checkerTrace, out []BatchOutcome, earlyExit bool) error {
	n := prog.Lanes()
	results := make([]*RunResult, n)
	laneErrs := make([]error, n)
	for lane := 0; lane < n; lane++ {
		results[lane] = &RunResult{ScenarioPass: make([]bool, len(tb.Scenarios))}
	}
	b := sim.NewBatchInstance(prog)
	b.BindContext(ctx)

	// recordLaneErrs harvests lanes newly killed by a simulation error,
	// attributing them like the interpreter runner does. The message is
	// only formatted when a lane actually erred — this runs after
	// every step.
	recordLaneErrs := func(format string, args ...interface{}) {
		for lane := 0; lane < n; lane++ {
			if laneErrs[lane] != nil {
				continue
			}
			if le := b.LaneErr(lane); le != nil {
				laneErrs[lane] = fmt.Errorf("dut: "+fmt.Sprintf(format, args...)+": %w", le)
			}
		}
	}
	// failActive gives every still-undecided lane a shared (checker- or
	// stimulus-side) error, which is what each interpreter run would return.
	failActive := func(err error) {
		for lane := 0; lane < n; lane++ {
			if laneErrs[lane] == nil && b.Active(lane) {
				laneErrs[lane] = err
				b.Deactivate(lane)
			}
		}
	}

	for i, sc := range tb.Scenarios {
		if err := ctx.Err(); err != nil {
			return err
		}
		if b.ActiveCount() == 0 {
			break
		}
		if i >= len(trace.scenarios) {
			// Unreachable: the trace only stops early after a checker
			// failure, which deactivates every lane below.
			break
		}
		if i > 0 {
			b.Reset()
		}
		if err := tb.runScenarioBatch(ctx, sc, i, b, trace, results, laneErrs, recordLaneErrs, failActive, earlyExit); err != nil {
			return err
		}
	}

	for vi := range prog.Variants() {
		lane := prog.VariantLane(vi)
		if lane < 0 {
			continue // interpreter fallback or another program covers it
		}
		if laneErrs[lane] != nil {
			out[idx[vi]] = BatchOutcome{Err: laneErrs[lane]}
		} else {
			out[idx[vi]] = BatchOutcome{Res: results[lane]}
		}
	}
	return nil
}

// runScenarioBatch mirrors runScenario with the DUT side batched and
// the checker side replayed from the recorded trace. Checker failures
// are re-raised at the exact point of the interleaving where a live
// checker would have erred, preserving the interpreter's error
// attribution (DUT errors at the same step win, as runScenario runs
// the DUT first).
func (tb *Testbench) runScenarioBatch(
	ctx context.Context,
	sc Scenario,
	scIdx int,
	b *sim.BatchInstance,
	trace *checkerTrace,
	results []*RunResult,
	laneErrs []error,
	recordLaneErrs func(string, ...interface{}),
	failActive func(error),
	earlyExit bool,
) error {
	p := tb.Problem
	n := b.Lanes()
	st := &trace.scenarios[scIdx]
	chkFail := func(step, phase int) *traceFail {
		if st.fail != nil && st.fail.step == step && st.fail.phase == phase {
			return st.fail
		}
		return nil
	}

	// Init, DUT side first like runScenario.
	if err := tb.initScenarioBatch(b); err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		failActive(fmt.Errorf("dut: scenario %d init: %w", sc.Index, err))
		return nil
	}
	recordLaneErrs("scenario %d init", sc.Index)
	if f := chkFail(-1, 0); f != nil {
		failActive(fmt.Errorf("checker: scenario %d init: %w", sc.Index, f.err))
		return nil
	}

	pass := make([]bool, n)
	for lane := range pass {
		pass[lane] = true
	}
	outSlots := make([]int, len(trace.outs))
	for oi, o := range trace.outs {
		slot, ok := b.SlotOf(o)
		if !ok {
			slot = -1
		}
		outSlots[oi] = slot
	}
	compare := func(samples []traceSample) {
		for oi := range trace.outs {
			s := samples[oi]
			slot := outSlots[oi]
			for lane := 0; lane < n; lane++ {
				if !b.Active(lane) || !pass[lane] {
					continue
				}
				if !s.ok || slot < 0 || !b.GetSlot(slot, lane).SameValue(s.val) {
					pass[lane] = false
				}
			}
		}
	}

	for si, step := range sc.Steps {
		if b.ActiveCount() == 0 {
			return nil
		}
		if err := applyStepBatch(b, step); err != nil {
			if cerr := ctx.Err(); cerr != nil {
				return cerr
			}
			failActive(fmt.Errorf("dut: scenario %d step %d: %w", sc.Index, si, err))
			return nil
		}
		recordLaneErrs("scenario %d step %d", sc.Index, si)
		if f := chkFail(si, 1); f != nil {
			failActive(fmt.Errorf("checker: scenario %d step %d: %w", sc.Index, si, f.err))
			return nil
		}
		// Sample combinational/Mealy outputs before the clock edge.
		compare(st.pre[si])
		if p.Kind == dataset.SEQ {
			if err := b.Tick(p.Clock); err != nil {
				if cerr := ctx.Err(); cerr != nil {
					return cerr
				}
				failActive(fmt.Errorf("dut: scenario %d step %d tick: %w", sc.Index, si, err))
				return nil
			}
			recordLaneErrs("scenario %d step %d tick", sc.Index, si)
			if f := chkFail(si, 2); f != nil {
				failActive(fmt.Errorf("checker: scenario %d step %d tick: %w", sc.Index, si, f.err))
				return nil
			}
			// Sample registered outputs after the edge as well.
			compare(st.post[si])
		}
	}
	for lane := 0; lane < n; lane++ {
		if laneErrs[lane] != nil || !b.Active(lane) {
			continue
		}
		results[lane].ScenarioPass[scIdx] = pass[lane]
		if earlyExit && !pass[lane] {
			b.Deactivate(lane)
		}
	}
	return nil
}

func (tb *Testbench) initScenarioBatch(b *sim.BatchInstance) error {
	p := tb.Problem
	if err := b.ZeroInputs(); err != nil {
		return err
	}
	if p.Kind == dataset.SEQ && p.Reset != "" {
		if err := b.SetInputUint(p.Reset, 1); err != nil {
			return err
		}
		if err := b.Tick(p.Clock); err != nil {
			return err
		}
		if err := b.SetInputUint(p.Reset, 0); err != nil {
			return err
		}
	}
	return nil
}

// applyStepBatch drives one step on every active lane, in the same
// sorted port order as the interpreter's applyStep. Deferrable batches
// (pure-blocking levelized comb, no sequential processes) apply the
// whole step under a single settle — same final state, one levelized
// pass instead of one per input.
func applyStepBatch(b *sim.BatchInstance, st Step) error {
	deferred := b.InputsDeferrable()
	for _, name := range st.SortedNames() {
		port := b.Design().Port(name)
		if port == nil {
			return fmt.Errorf("stimulus for unknown port %q", name)
		}
		v := logic.FromUint64(port.Width, st.Inputs[name])
		if deferred {
			if err := b.SetInputDeferred(name, v); err != nil {
				return err
			}
			continue
		}
		if err := b.SetInput(name, v); err != nil {
			return err
		}
	}
	return b.Settle()
}
