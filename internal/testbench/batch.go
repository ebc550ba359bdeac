package testbench

// Batched testbench runs: a DUT set (typically mutants of one golden
// design, or a single DUT) is judged against the testbench's checker in
// one pass. Every run is record-then-compare. One recorder (record)
// simulates lanes over the stimulus and keeps each lane's output
// samples and first error: a trace. It drives two engines: the lanes
// of a compiled sim.BatchProgram, or one design on the interpreter
// (sim.Instance) as a one-lane simulation — the engine of every design
// the batch compiler rejects, and of every design while
// sim.DefaultEngine is sim.EngineInterp. One compare (compareLane)
// turns a DUT lane's trace and the checker's trace into the lane's
// outcome, whichever engine recorded them.
//
// The checker's trajectory is DUT-independent, so it is recorded once
// per checker text, stimulus and port list (batchTrace), kept in the
// testbench's checker memo beside the parse and design it came from,
// and reused by every run — and by every WithChecker copy that keeps
// the text. The DUT side is recorded per run, or — for a caller
// holding a LaneMemo, like the validator's RTL group — once per
// stimulus: a corrected checker is then judged against the recorded
// DUT lanes without simulating them again. Either way a DUT set
// records each distinct design once: DUTs that are the same design
// share one lane, and each still gets its own outcome.
//
// With earlyExit=false a lane's outcome is identical to simulating the
// DUT and the checker side by side on the interpreter: the same
// ScenarioPass vector and an error exactly when that run errors, with
// the same text (TestBatchRunMatchesScalar asserts this over mutated
// DUTs against the interleaved oracle). With earlyExit=true, a lane's
// outcome stops at its first failing scenario; the overall
// Pass()/error verdict is unchanged but later ScenarioPass entries
// stay false — the mode AutoEval's kill checks use. A run that records
// for itself stops simulating a lane once its outcome is settled.

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

// trace is one recorded simulation of some lanes over a stimulus: every
// lane's output samples at the points where a run compares them, and
// each lane's first error. A trace is immutable once recorded.
type trace struct {
	stim *stimulus
	// readable[o] is false when output o is not a signal of the
	// recorded design: it never matches.
	readable  []bool
	scenarios []scenarioTrace
	// fails[lane] is the error that ended the lane, nil for a lane that
	// simulated every recorded point; it has one entry per lane.
	fails []*traceFail
	// engine is the sim.DefaultEngine setting a checker trace was
	// recorded under; a run records its DUTs under the same setting.
	engine sim.Engine
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
// order the recorder reaches them.
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

// over returns the stimulus sampling outs instead of s.outs.
func (s *stimulus) over(outs []string) *stimulus {
	c := *s
	c.outs = outs
	return &c
}

// A DUTSet is a set of DUT designs prepared for batched runs: the batch
// programs sim.CompileBatchSplit compiles for them over base, the
// design whose output ports a run compares (the golden design the DUTs
// are mutants of; a DUT may alias it). Static variants share a
// levelized program, the rest batch under a separate event-driven
// program. A DUT no program gives a lane — every DUT, when base does
// not batch-compile — is recorded on the interpreter. DUTs that are
// the same *sim.Design get one lane, or one interpreter recording,
// between them: a design is simulated once per run however often the
// set repeats it. A DUTSet is immutable and safe to share across
// concurrent runs.
type DUTSet struct {
	base *sim.Design
	duts []*sim.Design
	// first[i] is the index of the first DUT that is duts[i]; only
	// those DUTs are recorded, and a repeat reads its first's lane.
	first []int
	progs []*sim.BatchProgram
	// laneDUT[k][lane] is the DUT index of progs[k]'s lane.
	laneDUT [][]int
	// at[i] is DUT i's program lane, set for first DUTs only; prog is
	// -1 when it has none.
	at []laneRef
	// outs[i] is DUT i's output port list when it differs from base's
	// (only a DUT without a lane can differ), else nil.
	outs [][]string
}

type laneRef struct{ prog, lane int }

// NewDUTSet compiles duts into batch programs over base. out[i] of
// every run of the set is duts[i]'s outcome.
func NewDUTSet(base *sim.Design, duts []*sim.Design) *DUTSet {
	s := &DUTSet{base: base, duts: duts, first: make([]int, len(duts)), at: make([]laneRef, len(duts)), outs: make([][]string, len(duts))}
	baseOuts := outputPorts(base)
	seen := make(map[*sim.Design]int, len(duts)) // design -> its first DUT
	var designs []*sim.Design                    // each design once, in set order
	for i, d := range duts {
		s.at[i].prog = -1
		if outs := outputPorts(d); !slices.Equal(outs, baseOuts) {
			s.outs[i] = outs
		}
		if _, ok := seen[d]; !ok {
			seen[d] = i
			designs = append(designs, d)
		}
		s.first[i] = seen[d]
	}
	// A base the batch compiler rejects yields no programs, and every
	// DUT is recorded on the interpreter.
	progs, idx, _ := sim.CompileBatchSplit(base, designs)
	s.progs = progs
	s.laneDUT = make([][]int, len(progs))
	for k, p := range progs {
		s.laneDUT[k] = make([]int, p.Lanes())
		for vi := range p.Variants() {
			if lane := p.VariantLane(vi); lane >= 0 {
				i := seen[designs[idx[k][vi]]]
				s.laneDUT[k][lane] = i
				s.at[i] = laneRef{k, lane}
			}
		}
	}
	return s
}

// setTrace is one recording of a DUT set over a stimulus: a trace per
// program (nil for a program without lanes, and for every program
// under the interpreter engine) and a one-lane trace per DUT recorded
// on the interpreter.
type setTrace struct {
	set    *DUTSet
	stim   *stimulus
	engine sim.Engine
	progs  []*trace
	interp []*trace // per DUT; nil for a program lane and for a repeated DUT
}

// lane returns the trace that holds DUT i and its lane in it: the
// first DUT's that is the same design.
func (r *setTrace) lane(i int) (*trace, int) {
	i = r.set.first[i]
	if tr := r.interp[i]; tr != nil {
		return tr, 0
	}
	at := r.set.at[i]
	return r.progs[at.prog], at.lane
}

// A LaneMemo holds the DUT side of one batched run of a DUT set,
// recorded over every scenario, so that RunBatchContext can judge
// further checkers over the same stimulus by comparing traces, without
// simulating the DUTs again — program lanes and interpreter-recorded
// DUTs alike. It holds one recording, replaced when a run reads a
// different stimulus, DUT set or engine. The zero value is empty and
// ready to use; a LaneMemo is safe for concurrent use: racing runs may
// both record, and they store equal recordings.
type LaneMemo struct {
	p atomic.Pointer[setTrace]
}

// batchTrace returns the checker's trace over the output ports outs,
// recorded from the memo's design cd once per stimulus, port list and
// engine and kept in the memo. The checker is recorded as a one-design
// DUTSet: a one-lane batch program, or on the interpreter when the
// batch compiler rejects it. It reads sim.DefaultEngine, the one place
// the process-wide reference switch is read; every run starts here.
// The first caller records while holding the memo's lock; racing
// callers wait for its trace.
//
// ctx is used for observation only: a recording records a sim_run span
// on ctx's obs collector, but is never cancelled by it — trace contents
// must not depend on a caller's cancellation.
func (tb *Testbench) batchTrace(ctx context.Context, m *checkerMemo, cd *sim.Design, outs []string) *trace {
	engine := sim.DefaultEngine
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, tr := range m.traces {
		if tr.engine == engine && tr.stim.reads(tb, outs) {
			return tr
		}
	}
	// Never cancelled, so the recording cannot fail.
	rec, _ := tb.recordSet(context.WithoutCancel(ctx), NewDUTSet(cd, []*sim.Design{cd}), engine, newStimulus(tb, outs), "checker", nil, false)
	tr, _ := rec.lane(0)
	tr.engine = engine
	// Replace a stale recording over the same ports and engine.
	i := slices.IndexFunc(m.traces, func(c *trace) bool {
		return c.engine == engine && slices.Equal(c.stim.outs, outs)
	})
	if i < 0 {
		m.traces = append(m.traces, tr)
	} else {
		m.traces[i] = tr
	}
	return tr
}

// lanes is what the recorder simulates: the lanes of a batch program,
// or one design on the interpreter as a single lane. Exactly one of b
// and in is set; sim is whichever is. The recorder dispatches on it
// per step and per sampled row, so batch lanes keep a concrete
// *sim.BatchInstance in the sampling loop. Every interpreter error is
// returned by the call that met it, like a shared batch error: with
// one lane, ending every lane and ending that lane coincide.
type lanes struct {
	sim  cycleSim
	b    *sim.BatchInstance
	in   *sim.Instance
	done bool // the interpreter lane was deactivated
}

// cycleSim is the cycle API both engines share.
type cycleSim interface {
	BindContext(ctx context.Context)
	Design() *sim.Design
	Reset()
	SlotOf(name string) (int, bool)
	ZeroInputs() error
	SetInput(name string, v logic.Vector) error
	SetInputUint(name string, v uint64) error
	Settle() error
	Tick(clk string) error
}

func batchLanes(p *sim.BatchProgram) *lanes {
	b := sim.NewBatchInstance(p)
	return &lanes{sim: b, b: b}
}

func interpLane(d *sim.Design) *lanes {
	in := sim.NewInstance(d)
	return &lanes{sim: in, in: in}
}

func (l *lanes) count() int {
	if l.b != nil {
		return l.b.Lanes()
	}
	return 1
}

func (l *lanes) running() int {
	if l.b != nil {
		return l.b.ActiveCount()
	}
	if l.done {
		return 0
	}
	return 1
}

func (l *lanes) active(lane int) bool {
	if l.b != nil {
		return l.b.Active(lane)
	}
	return !l.done
}

func (l *lanes) laneErr(lane int) error {
	if l.b != nil {
		return l.b.LaneErr(lane)
	}
	return nil
}

func (l *lanes) deactivate(lane int) {
	if l.b != nil {
		l.b.Deactivate(lane)
		return
	}
	l.done = true
}

// sample fills row, lane-major, with every active lane's values of the
// readable slots.
func (l *lanes) sample(row []traceSample, slots []int, readable []bool) {
	if l.b == nil {
		if !l.done {
			for o, slot := range slots {
				if readable[o] {
					row[o] = sampleOf(l.in.GetSlot(slot))
				}
			}
		}
		return
	}
	w := len(slots)
	for lane := 0; lane < l.b.Lanes(); lane++ {
		if !l.b.Active(lane) {
			continue
		}
		for o, slot := range slots {
			if readable[o] {
				row[lane*w+o] = sampleOf(l.b.GetSlot(slot, lane))
			}
		}
	}
}

// record simulates every lane of l over the stimulus, sampling the
// outputs stim.outs before each clock edge and, for SEQ problems,
// after it. A lane's first simulation error — its own, or a
// stimulus-side error of the shared drive, which ends every lane still
// running — ends the lane at its (scenario, step, phase); side ("dut"
// or "checker") prefixes the error text. After each scenario, settled
// (when non-nil) is asked about every lane still running and the lanes
// it reports are no longer simulated. The returned error is non-nil
// only on cancellation of ctx, and then no trace is returned.
func (tb *Testbench) record(ctx context.Context, l *lanes, stim *stimulus, side string, settled func(tr *trace, lane, s int) bool) (*trace, error) {
	p := tb.Problem
	n := l.count()
	l.sim.BindContext(ctx)
	w := len(stim.outs)
	slots := make([]int, w)
	readable := make([]bool, w)
	for i, o := range stim.outs {
		slots[i], readable[i] = l.sim.SlotOf(o)
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
		if l.running() == 0 {
			break
		}
		if s > 0 {
			l.sim.Reset()
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
				err := l.laneErr(lane)
				if err == nil && shared != nil && l.active(lane) {
					err = shared
					l.deactivate(lane)
				}
				if err != nil {
					tr.fails[lane] = &traceFail{s, step, phase, fmt.Errorf("%s: %w", failSite(side, sc.Index, step, phase), err)}
				}
			}
			return l.running() > 0, nil
		}
		st := scenarioTrace{samples: make([]traceSample, 0, len(sc.Steps)*perStep*n*w)}
		sample := func() {
			l.sample(st.samples[len(st.samples):len(st.samples)+n*w], slots, readable)
			st.samples = st.samples[:len(st.samples)+n*w]
			st.rows++
		}
		more, err := end(-1, phaseInit, tb.initLanes(l.sim))
		for si := 0; more && err == nil && si < len(sc.Steps); si++ {
			if more, err = end(si, phaseStep, driveStep(l.sim, sc.Steps[si])); !more || err != nil {
				break
			}
			// Sample combinational/Mealy outputs before the clock edge.
			sample()
			if p.Kind == dataset.SEQ {
				if more, err = end(si, phaseTick, l.sim.Tick(p.Clock)); !more || err != nil {
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
				if l.active(lane) && settled(tr, lane, s) {
					l.deactivate(lane)
				}
			}
		}
	}
	return tr, nil
}

// failSite names where a run stopped: side, scenario, step and phase.
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
// (scenario, step, phase), as when the two are simulated side by side
// with the DUT driven first.
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

// RunBatchContext runs every DUT of set against the testbench in one
// batched pass and returns one outcome per DUT, in set order. The
// checker is recorded once (batchTrace); each distinct DUT design is
// recorded once, as a program lane or, for a design without a lane, on
// the interpreter, and every DUT is compared on its own output ports.
// A checker that does not elaborate is every DUT's "checker:" error.
//
// With a nil memo the DUTs are recorded for this call only, and a lane
// stops simulating once its outcome is settled. With a memo, a run
// whose stimulus, DUT set and engine match its recording simulates no
// DUT and only compares traces; any other run records every DUT through
// every scenario and stores the recording in memo. The returned error
// is non-nil only on cancellation of ctx, and then no recording is
// stored.
func (tb *Testbench) RunBatchContext(ctx context.Context, set *DUTSet, earlyExit bool, memo *LaneMemo) ([]BatchOutcome, error) {
	out := make([]BatchOutcome, len(set.duts))
	if len(out) == 0 {
		return out, nil
	}
	m, cd, err := tb.checkerDesignContext(ctx)
	if err != nil {
		err = fmt.Errorf("checker: %w", err)
		for i := range out {
			out[i].Err = err
		}
		return out, nil
	}
	// chks[i] is the checker trace DUT i is compared with, over its own
	// output ports.
	chk := tb.batchTrace(ctx, m, cd, outputPorts(set.base))
	chks := make([]*trace, len(out))
	for i, outs := range set.outs {
		chks[i] = chk
		if outs != nil {
			chks[i] = tb.batchTrace(ctx, m, cd, outs)
		}
	}
	var rec *setTrace
	if memo != nil {
		if m := memo.p.Load(); m != nil && m.set == set && m.engine == chk.engine && m.stim.reads(tb, chk.stim.outs) {
			rec = m
		}
	}
	if rec == nil {
		// A memo's recording is for every later checker, so it records
		// every lane through every scenario.
		judge := chks
		if memo != nil {
			judge = nil
		}
		if rec, err = tb.recordSet(ctx, set, chk.engine, chk.stim, "dut", judge, earlyExit); err != nil {
			return nil, err
		}
		if memo != nil {
			memo.p.Store(rec)
		}
	}
	for i := range out {
		tr, lane := rec.lane(i)
		out[i] = compareLane(tr, chks[i], lane, earlyExit)
	}
	return out, nil
}

// recordSet records every distinct DUT of set over stim as one
// sim_run; a repeated DUT is not recorded again. Under the batched
// engine each program records its lanes; every other DUT — every DUT
// under the interpreter engine — is recorded on the interpreter as one
// lane, over its own output ports when they differ from the base's.
// With chks (per DUT, the checker trace it is compared with) a lane
// stops once its outcome is settled; with nil chks every lane is
// recorded through every scenario. The returned error is non-nil only
// on cancellation of ctx.
func (tb *Testbench) recordSet(ctx context.Context, set *DUTSet, engine sim.Engine, stim *stimulus, side string, chks []*trace, earlyExit bool) (*setTrace, error) {
	defer obs.Time(ctx, obs.PhaseRun)()
	rec := &setTrace{set: set, stim: stim, engine: engine, progs: make([]*trace, len(set.progs)), interp: make([]*trace, len(set.duts))}
	// settled stops the lane of DUT dut(lane) once its outcome is known.
	settled := func(dut func(lane int) int) func(tr *trace, lane, s int) bool {
		if chks == nil {
			return nil
		}
		return func(tr *trace, lane, s int) bool {
			chk := chks[dut(lane)]
			if f := laneFail(tr, chk, lane); f != nil && f.scenario <= s {
				return true
			}
			return earlyExit && !lanePass(tr, chk, lane, s)
		}
	}
	batched := engine == sim.EngineBatched
	var err error
	for k, p := range set.progs {
		if !batched || p.Lanes() == 0 {
			continue
		}
		laneDUT := set.laneDUT[k]
		if rec.progs[k], err = tb.record(ctx, batchLanes(p), stim, side, settled(func(lane int) int { return laneDUT[lane] })); err != nil {
			return nil, err
		}
	}
	for i, d := range set.duts {
		if set.first[i] != i || batched && set.at[i].prog >= 0 {
			continue
		}
		s := stim
		if outs := set.outs[i]; outs != nil {
			s = stim.over(outs)
		}
		if rec.interp[i], err = tb.record(ctx, interpLane(d), s, side, settled(func(int) int { return i })); err != nil {
			return nil, err
		}
	}
	return rec, nil
}

// initLanes starts a scenario: every input zero and, for SEQ problems
// with a reset, one clock cycle with the reset asserted.
func (tb *Testbench) initLanes(s cycleSim) error {
	p := tb.Problem
	if err := s.ZeroInputs(); err != nil {
		return err
	}
	if p.Kind == dataset.SEQ && p.Reset != "" {
		if err := s.SetInputUint(p.Reset, 1); err != nil {
			return err
		}
		if err := s.Tick(p.Clock); err != nil {
			return err
		}
		if err := s.SetInputUint(p.Reset, 0); err != nil {
			return err
		}
	}
	return nil
}

// driveStep drives one step's inputs on every active lane in sorted
// port-name order and settles. The order matters: SetInput propagates
// after every input, and designs with internal feedback (notably
// mutated RTLs, which can latch) can settle differently depending on
// which input moves first. Deferrable batches (pure-blocking levelized
// comb, no sequential processes) apply the whole step under a single
// settle — same final state, one levelized pass instead of one per
// input.
func driveStep(s cycleSim, st Step) error {
	b, _ := s.(*sim.BatchInstance)
	deferred := b != nil && b.InputsDeferrable()
	for _, name := range st.SortedNames() {
		port := s.Design().Port(name)
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
		if err := s.SetInput(name, v); err != nil {
			return err
		}
	}
	return s.Settle()
}
