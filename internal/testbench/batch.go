package testbench

// Batched testbench runs: N DUT variants (typically mutants of one
// golden design, or a single DUT as one lane) advance through every
// scenario together on a single sim.BatchInstance. Every batched run
// is record-then-compare. One recorder (record) simulates the lanes of
// a batch program over the stimulus and keeps each lane's output
// samples and first error: a trace. One compare (compareLane) turns a
// DUT lane's trace and the checker's trace into the lane's outcome.
//
// The checker's trajectory is DUT-independent, so it is recorded once
// per checker source and stimulus as a one-lane trace (batchTrace) and
// reused by every run. The DUT side is recorded per run, or — for a
// caller holding a LaneMemo, like the validator's RTL group — once per
// stimulus: a corrected checker is then judged against the recorded
// DUT lanes without simulating them again.
//
// With earlyExit=false a lane's outcome is identical to the
// interpreter runner (runLive) for the same design: the same
// ScenarioPass vector and an error exactly when the interpreter run
// errors, with the same text (TestBatchRunMatchesScalar asserts this
// over mutated DUTs). With earlyExit=true, a lane's outcome stops at
// its first failing scenario; the overall Pass()/error verdict is
// unchanged but later ScenarioPass entries stay false — the mode
// AutoEval's kill checks use. A run that records for itself stops
// simulating a lane once its outcome is settled.

import (
	"context"
	"fmt"
	"slices"
	"sync/atomic"

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

// trace is one recorded simulation of a batch program's lanes over a
// stimulus: every lane's output samples at the points where the
// interpreter runner compares them, and each lane's first error. A
// trace is immutable once recorded.
type trace struct {
	stim *stimulus
	// readable[o] is false when output o is not a signal of the
	// recorded design: it never matches.
	readable  []bool
	scenarios []scenarioTrace
	// fails[lane] is the error that ended the lane, nil for a lane that
	// simulated every recorded point; it has one entry per lane.
	fails []*traceFail
	// live marks a checker that is not recorded: it does not
	// batch-compile, or sim.DefaultEngine selects the interpreter.
	// Every run then takes the interpreter runner (runLive).
	live bool
}

// scenarioTrace holds one scenario's samples as rows, in the order they
// were taken: per step the pre-edge row and, for SEQ problems, the
// post-edge row. A row holds every lane's outputs, lane-major:
// samples[row*lanes*len(outs) + lane*len(outs) + o].
type scenarioTrace struct {
	samples []traceSample
	rows    int
}

// Phases of a scenario at which a simulation error can occur, in the
// order the runner reaches them.
const (
	phaseInit = iota // scenario init (step -1)
	phaseStep        // driving a step's inputs
	phaseTick        // the step's clock edge
)

// traceFail is a lane's first simulation error and where it occurred.
type traceFail struct {
	scenario, step, phase int // step is -1 for phaseInit
	err                   error
}

// before reports whether f occurred strictly before g.
func (f *traceFail) before(g *traceFail) bool {
	if f.scenario != g.scenario {
		return f.scenario < g.scenario
	}
	if f.step != g.step {
		return f.step < g.step
	}
	return f.phase < g.phase
}

// traceSample is one sampled output value: the bit planes of its low
// 64 bits and, only for a value wider than 64 bits, the value itself
// (the engine never mutates a stored vector in place — writes install
// fresh vectors — so no clone is needed).
type traceSample struct {
	a, b uint64
	wide *logic.Vector
}

func sampleOf(v logic.Vector) traceSample {
	a, b := v.LowWord()
	if v.Width() <= 64 {
		return traceSample{a: a, b: b}
	}
	wide := v
	return traceSample{a: a, b: b, wide: &wide}
}

// same reports whether two samples hold the same value (SameValue).
func (s traceSample) same(o traceSample) bool {
	if s.a != o.a || s.b != o.b {
		return false
	}
	switch {
	case s.wide == nil && o.wide == nil:
		return true
	case s.wide != nil && o.wide != nil:
		return s.wide.SameValue(*o.wide)
	// A wide value equals a narrow one with the same low word exactly
	// when its bits above 63 are zero.
	case s.wide != nil:
		return s.wide.SameValue(s.wide.Resize(64))
	}
	return o.wide.SameValue(o.wide.Resize(64))
}

// liveTrace is the trace of every checker that is not recorded.
var liveTrace = &trace{live: true}

// stimulus is a copy of everything a recording reads from its
// testbench besides the simulated designs: the problem's clocking, the
// output ports sampled, and each scenario's index and drive lists. A
// trace serves a testbench only while reads reports its stimulus
// unchanged, so an in-place edit of Scenarios is recorded again.
type stimulus struct {
	kind         dataset.Kind
	clock, reset string
	outs         []string
	index        []int   // per scenario: Scenario.Index
	steps        []int   // per scenario: step count
	ends         []int   // per step: end offset of its drives
	drives       []drive // every step's inputs in drive order
}

type drive struct {
	name string
	val  uint64
}

func newStimulus(tb *Testbench, outs []string) *stimulus {
	p := tb.Problem
	s := &stimulus{kind: p.Kind, clock: p.Clock, reset: p.Reset, outs: outs}
	for _, sc := range tb.Scenarios {
		s.index = append(s.index, sc.Index)
		s.steps = append(s.steps, len(sc.Steps))
		for _, st := range sc.Steps {
			for _, name := range st.SortedNames() {
				s.drives = append(s.drives, drive{name, st.Inputs[name]})
			}
			s.ends = append(s.ends, len(s.drives))
		}
	}
	return s
}

// reads reports whether a run of tb sampling outs reads exactly this
// stimulus.
func (s *stimulus) reads(tb *Testbench, outs []string) bool {
	p := tb.Problem
	if s == nil || p.Kind != s.kind || p.Clock != s.clock || p.Reset != s.reset ||
		!slices.Equal(s.outs, outs) || len(tb.Scenarios) != len(s.index) {
		return false
	}
	k, d := 0, 0 // step and drive cursors
	for i, sc := range tb.Scenarios {
		if sc.Index != s.index[i] || len(sc.Steps) != s.steps[i] {
			return false
		}
		for _, st := range sc.Steps {
			names := st.SortedNames()
			if len(names) != s.ends[k]-d {
				return false
			}
			for _, name := range names {
				if dr := s.drives[d]; name != dr.name || st.Inputs[name] != dr.val {
					return false
				}
				d++
			}
			k++
		}
	}
	return true
}

// batchTrace records the checker once over all scenarios as a one-lane
// batch and caches the trace on the testbench, keyed on checker source
// and the stimulus it read (including the output port list being
// compared). Only checker elaboration failures are returned as errors;
// simulation failures are part of the trace (they decide run outcomes,
// exactly as a live checker would). A checker the batch compiler
// rejects yields liveTrace, as does every call while sim.DefaultEngine
// is sim.EngineInterp — the one place the process-wide reference
// switch is read.
//
// ctx is used for observation only: a cold build records the checker's
// sim_elaborate/sim_compile spans and a sim_run span for the recording
// on ctx's obs collector, but is never cancelled by it — trace
// contents must not depend on a caller's cancellation.
func (tb *Testbench) batchTrace(ctx context.Context, outs []string) (*trace, error) {
	if sim.DefaultEngine == sim.EngineInterp {
		return liveTrace, nil
	}
	if tb.cachedTrace != nil && tb.cachedTraceSrc == tb.CheckerSource &&
		(tb.cachedTrace.live || tb.cachedTrace.stim.reads(tb, outs)) {
		return tb.cachedTrace, nil
	}
	ctx = context.WithoutCancel(ctx)
	cd, err := tb.checkerDesignContext(ctx)
	if err != nil {
		return nil, err
	}
	tr := liveTrace
	if prog, err := sim.CompileBatch(cd, []*sim.Design{cd}); err == nil && prog.Lanes() == 1 {
		end := obs.Time(ctx, obs.PhaseRun)
		// Never cancelled, so the recording cannot fail.
		tr, _ = tb.record(ctx, sim.NewBatchInstance(prog), newStimulus(tb, outs), "checker", nil)
		end()
	}
	tb.cachedTrace = tr
	tb.cachedTraceSrc = tb.CheckerSource
	return tr, nil
}

// record simulates every lane of b over the stimulus, sampling the
// outputs stim.outs where the interpreter runner compares them. A
// lane's first simulation error — its own, or a stimulus-side error of
// the shared drive, which ends every lane still running — ends the
// lane at its (scenario, step, phase); side ("dut" or "checker")
// prefixes the error text as the interpreter runner does. After each
// scenario, settled (when non-nil) is asked about every lane still
// running and the lanes it reports are no longer simulated. The
// returned error is non-nil only on cancellation of ctx, and then no
// trace is returned.
func (tb *Testbench) record(ctx context.Context, b *sim.BatchInstance, stim *stimulus, side string, settled func(tr *trace, lane, s int) bool) (*trace, error) {
	p := tb.Problem
	n := b.Lanes()
	b.BindContext(ctx)
	w := len(stim.outs)
	slots := make([]int, w)
	readable := make([]bool, w)
	for i, o := range stim.outs {
		slots[i], readable[i] = b.SlotOf(o)
	}
	perStep := 1
	if p.Kind == dataset.SEQ {
		perStep = 2
	}
	tr := &trace{stim: stim, readable: readable, fails: make([]*traceFail, n)}
	for s, sc := range tb.Scenarios {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if b.ActiveCount() == 0 {
			break
		}
		if s > 0 {
			b.Reset()
		}
		// end harvests the lanes that erred at (step, phase), each lane's
		// own error before a shared one, and reports whether the scenario
		// goes on. The message is only formatted when a lane actually
		// erred — this runs after every step.
		end := func(step, phase int, shared error) (bool, error) {
			if shared != nil {
				if err := ctx.Err(); err != nil {
					return false, err
				}
			}
			for lane := 0; lane < n; lane++ {
				if tr.fails[lane] != nil {
					continue
				}
				err := b.LaneErr(lane)
				if err == nil && shared != nil && b.Active(lane) {
					err = shared
					b.Deactivate(lane)
				}
				if err != nil {
					tr.fails[lane] = &traceFail{s, step, phase, fmt.Errorf("%s: %w", failSite(side, sc.Index, step, phase), err)}
				}
			}
			return b.ActiveCount() > 0, nil
		}
		st := scenarioTrace{samples: make([]traceSample, 0, len(sc.Steps)*perStep*n*w)}
		sample := func() {
			row := st.samples[len(st.samples) : len(st.samples)+n*w]
			for lane := 0; lane < n; lane++ {
				if !b.Active(lane) {
					continue
				}
				for o, slot := range slots {
					if readable[o] {
						row[lane*w+o] = sampleOf(b.GetSlot(slot, lane))
					}
				}
			}
			st.samples = st.samples[:len(st.samples)+n*w]
			st.rows++
		}
		more, err := end(-1, phaseInit, tb.initScenarioBatch(b))
		for si := 0; more && err == nil && si < len(sc.Steps); si++ {
			if more, err = end(si, phaseStep, applyStepBatch(b, sc.Steps[si])); !more || err != nil {
				break
			}
			// Sample combinational/Mealy outputs before the clock edge.
			sample()
			if p.Kind == dataset.SEQ {
				if more, err = end(si, phaseTick, b.Tick(p.Clock)); !more || err != nil {
					break
				}
				// Sample registered outputs after the edge as well.
				sample()
			}
		}
		if err != nil {
			return nil, err
		}
		tr.scenarios = append(tr.scenarios, st)
		if settled != nil {
			for lane := 0; lane < n; lane++ {
				if b.Active(lane) && settled(tr, lane, s) {
					b.Deactivate(lane)
				}
			}
		}
	}
	return tr, nil
}

// failSite names where a run stopped, in the interpreter runner's words.
func failSite(side string, scenario, step, phase int) string {
	switch phase {
	case phaseInit:
		return fmt.Sprintf("%s: scenario %d init", side, scenario)
	case phaseStep:
		return fmt.Sprintf("%s: scenario %d step %d", side, scenario, step)
	}
	return fmt.Sprintf("%s: scenario %d step %d tick", side, scenario, step)
}

// laneFail returns the error that ends a DUT lane's run against the
// checker, nil when neither side errs: the earlier of the lane's own
// error and the checker's. A DUT error wins a tie at the same
// (scenario, step, phase), because the interpreter runner drives the
// DUT side first.
func laneFail(dut, chk *trace, lane int) *traceFail {
	f, c := dut.fails[lane], chk.fails[0]
	if c != nil && (f == nil || c.before(f)) {
		return c
	}
	return f
}

// lanePass reports whether a DUT lane's outputs equal the checker's at
// every sample of scenario s. Both traces must hold the whole scenario.
func lanePass(dut, chk *trace, lane, s int) bool {
	w, rows := len(chk.readable), chk.scenarios[s].rows
	for o := 0; o < w && rows > 0; o++ {
		if !chk.readable[o] || !dut.readable[o] {
			return false
		}
	}
	ds, cs := dut.scenarios[s].samples, chk.scenarios[s].samples
	for r := 0; r < rows; r++ {
		drow := ds[(r*len(dut.fails)+lane)*w:][:w]
		for o, c := range cs[r*w : (r+1)*w] {
			if !drow[o].same(c) {
				return false
			}
		}
	}
	return true
}

// compareLane is a DUT lane's outcome against the checker: the error
// that ends its run if the run reaches one, else its per-scenario
// verdicts. With earlyExit the run ends after the first failing
// scenario.
func compareLane(dut, chk *trace, lane int, earlyExit bool) BatchOutcome {
	f := laneFail(dut, chk, lane)
	res := &RunResult{ScenarioPass: make([]bool, len(dut.stim.index))}
	for s := range res.ScenarioPass {
		if f != nil && f.scenario == s {
			return BatchOutcome{Err: f.err}
		}
		res.ScenarioPass[s] = lanePass(dut, chk, lane, s)
		if earlyExit && !res.ScenarioPass[s] {
			break
		}
	}
	return BatchOutcome{Res: res}
}

// laneTrace is the DUT side of a run of a program set: one trace per
// program (nil for a program without lanes), all over one stimulus.
type laneTrace struct {
	stim   *stimulus
	progs  []*sim.BatchProgram
	traces []*trace
}

// A LaneMemo holds the DUT side of one batched run of a program set,
// recorded over every scenario, so that RunBatchProgramsContext can
// judge further checkers over the same stimulus by comparing traces,
// without simulating the DUTs again. It holds one recording, replaced
// when a run reads a different stimulus or program set. The zero value
// is empty and ready to use; a LaneMemo is safe for concurrent use:
// racing runs may both record, and they store equal recordings.
type LaneMemo struct {
	p atomic.Pointer[laneTrace]
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
	chk, err := tb.batchTrace(ctx, outputPorts(base))
	if err != nil {
		err = fmt.Errorf("checker: %w", err)
		for i := range out {
			out[i].Err = err
		}
		return out, nil
	}
	if !chk.live {
		if progs, idxs, err := sim.CompileBatchSplit(base, duts); err == nil {
			return out, tb.runBatchPrograms(ctx, progs, idxs, chk, out, earlyExit, nil)
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
//
// With a nil memo the DUT lanes are recorded for this call only. With
// a memo, a run whose stimulus and program set match its recording
// simulates no lane and only compares traces; any other run records
// every scenario and stores the recording in memo.
func (tb *Testbench) RunBatchProgramsContext(ctx context.Context, progs []*sim.BatchProgram, idx [][]int, earlyExit bool, memo *LaneMemo) ([]BatchOutcome, error) {
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
	chk, err := tb.batchTrace(ctx, outputPorts(progs[0].Base()))
	if err != nil {
		err = fmt.Errorf("checker: %w", err)
		for i := range out {
			out[i].Err = err
		}
		return out, nil
	}
	return out, tb.runBatchPrograms(ctx, progs, idx, chk, out, earlyExit, memo)
}

// runBatchPrograms fills out by comparing every program's recorded
// lanes with the checker trace chk and, for variants no program
// accepted, running individual interpreter fallbacks. The returned
// error is non-nil only on context cancellation.
func (tb *Testbench) runBatchPrograms(ctx context.Context, progs []*sim.BatchProgram, idxs [][]int, chk *trace, out []BatchOutcome, earlyExit bool, memo *LaneMemo) error {
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
			if !chk.live && p.VariantLane(i) >= 0 {
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
	if chk.live {
		return nil
	}

	var lt *laneTrace
	if memo != nil {
		if m := memo.p.Load(); m != nil && slices.Equal(m.progs, progs) && m.stim.reads(tb, chk.stim.outs) {
			lt = m
		}
	}
	if lt == nil {
		// A run recording for itself stops each lane once its outcome
		// is settled; a memo's recording is for every later checker, so
		// it records every lane through every scenario.
		var settled func(tr *trace, lane, s int) bool
		if memo == nil {
			settled = func(tr *trace, lane, s int) bool {
				if f := laneFail(tr, chk, lane); f != nil && f.scenario <= s {
					return true
				}
				return earlyExit && !lanePass(tr, chk, lane, s)
			}
		}
		var err error
		if lt, err = tb.recordLanes(ctx, progs, chk.stim, settled); err != nil {
			return err
		}
		if memo != nil {
			memo.p.Store(lt)
		}
	}
	for k, p := range progs {
		for vi := range p.Variants() {
			if lane := p.VariantLane(vi); lane >= 0 {
				out[idxs[k][vi]] = compareLane(lt.traces[k], chk, lane, earlyExit)
			}
		}
	}
	return nil
}

// recordLanes records every program's lanes over stim as one sim_run.
func (tb *Testbench) recordLanes(ctx context.Context, progs []*sim.BatchProgram, stim *stimulus, settled func(tr *trace, lane, s int) bool) (*laneTrace, error) {
	defer obs.Time(ctx, obs.PhaseRun)()
	lt := &laneTrace{stim: stim, progs: progs, traces: make([]*trace, len(progs))}
	for k, p := range progs {
		if p.Lanes() == 0 {
			continue
		}
		tr, err := tb.record(ctx, sim.NewBatchInstance(p), stim, "dut", settled)
		if err != nil {
			return nil, err
		}
		lt.traces[k] = tr
	}
	return lt, nil
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
