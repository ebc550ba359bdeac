package testbench

// Batched testbench runs: a DUT set (typically mutants of one golden
// design, or a single DUT) is judged against the testbench's checker in
// one pass. Every run is record-then-compare. One recorder (record)
// simulates the lanes of a compiled sim.BatchProgram over the stimulus
// and keeps each lane's output samples and first error: a trace. The
// checker is a one-lane program; the DUTs are lanes of the programs
// sim.CompileBatch places them on, each program recorded and compared
// on its own output ports. One compare (compareLane) turns a DUT lane's
// trace and the checker's trace over the same ports into the lane's
// outcome.
//
// The recorder works scenario by scenario against the testbench's trace
// store (store.go), which keeps every complete scenario it has recorded
// on a design or a program: a scenario's samples and first errors are a
// pure function of the simulated unit and that scenario's drives,
// because each scenario starts from Reset. A run reads the scenarios
// the store holds and simulates only the rest, so within one store — a
// generator's cell: its generations, reboots, corrections, checker
// probes and the final grade — a (design, scenario) pair is simulated
// once, on the checker side (recorded per checker design and port
// list) and on the DUT side (recorded per unit, as the validator's RTL
// group is over every testbench of a task) alike. An error is given its
// "checker:"/"dut:" side and the reading run's scenario index when a
// trace is assembled, never when it is stored. A DUT set records each
// distinct design once: DUTs that are the same design share one lane,
// and each still gets its own outcome.
//
// With earlyExit=false a lane's outcome is identical to simulating the
// DUT and the checker side by side on the interpreter: the same
// ScenarioPass vector and an error exactly when that run errors, with
// the same text (TestBatchRunMatchesScalar asserts this over mutated
// DUTs against the interleaved oracle). With earlyExit=true, a lane's
// outcome stops at its first failing scenario; the overall
// Pass()/error verdict is unchanged but later ScenarioPass entries
// stay false — the mode AutoEval's kill checks use. An early-exit run
// stops simulating a lane once its outcome is settled, and stores
// nothing of its DUT side.

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"

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

// ErrChecker marks an outcome's error as the testbench's own: its
// checker did not elaborate, or failed while simulating. errors.Is
// finds it, and the error's text starts "checker: ". A DUT's own error
// (errDUT) starts "dut: ".
var (
	ErrChecker = errors.New("checker")
	errDUT     = errors.New("dut")
)

// trace is a run's view of one unit's recording over its scenarios:
// every lane's output samples at the points where a run compares them,
// and each lane's first error, with the run's side and scenario index
// in its text. Its rows are the store's pieces, shared, never written.
type trace struct {
	// readable[o] is false when output o is not a signal of the
	// recorded design: it never matches.
	readable  []bool
	scenarios []scenarioTrace
	// fails[lane] is the error that ended the lane, nil for a lane that
	// simulated every recorded point; it has one entry per lane.
	fails []*traceFail
}

// scenarioTrace holds one scenario's samples as rows, in the order they
// were taken: per step the pre-edge row and, for SEQ problems, the
// post-edge row. A row holds every lane's outputs, lane-major:
// samples[row*lanes*len(outs) + lane*len(outs) + o]. The samples are
// pointer-free; the rare value wider than 64 bits is also listed in
// wide.
type scenarioTrace struct {
	samples []traceSample
	rows    int
	// wide holds the values wider than 64 bits, by increasing index
	// into samples (the engine never mutates a stored vector in place
	// — writes install fresh vectors — so no clone is needed).
	wide []wideSample
}

// wideSample is a sampled value wider than 64 bits and its index.
type wideSample struct {
	at int32
	v  logic.Vector
}

// wideAt returns the value wider than 64 bits sampled at index i, nil
// when that sample is at most 64 bits wide.
func (st *scenarioTrace) wideAt(i int) *logic.Vector {
	k, ok := slices.BinarySearchFunc(st.wide, int32(i), func(w wideSample, at int32) int { return int(w.at - at) })
	if !ok {
		return nil
	}
	return &st.wide[k].v
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
// 64 bits, which are the whole value unless its scenario trace lists it
// as wide.
type traceSample struct {
	a, b uint64
}

// sampleOf splits a value into its sample and, for a value wider than
// 64 bits, the value itself.
func sampleOf(v logic.Vector) (traceSample, *logic.Vector) {
	a, b := v.LowWord()
	if v.Width() <= 64 {
		return traceSample{a: a, b: b}, nil
	}
	return traceSample{a: a, b: b}, &v
}

// sameSample reports whether two samples hold the same value
// (SameValue); sw and ow are their wide values, nil for a sample at
// most 64 bits wide.
func sameSample(s traceSample, sw *logic.Vector, o traceSample, ow *logic.Vector) bool {
	if s != o {
		return false
	}
	switch {
	case sw == nil && ow == nil:
		return true
	case sw != nil && ow != nil:
		return sw.SameValue(*ow)
	// A wide value equals a narrow one with the same low word exactly
	// when its bits above 63 are zero.
	case sw != nil:
		return sw.SameValue(sw.Resize(64))
	}
	return ow.SameValue(ow.Resize(64))
}

// stimulus is what a run's recordings read from its testbench besides
// the designs and the sampled outputs, in store-key form: the problem's
// clocking and each scenario's encoded drive list. It is taken afresh
// by every run, so an in-place edit of Scenarios reads other pieces.
type stimulus struct {
	kind         dataset.Kind
	clock, reset string
	drives       []string // per scenario: scenarioKey
}

func newStimulus(tb *Testbench) *stimulus {
	p := tb.Problem
	s := &stimulus{kind: p.Kind, clock: p.Clock, reset: p.Reset, drives: make([]string, len(tb.Scenarios))}
	var buf []byte
	for i, sc := range tb.Scenarios {
		buf, s.drives[i] = scenarioKey(buf, sc)
	}
	return s
}

// A DUTSet is a set of DUT designs prepared for batched runs: the batch
// programs sim.CompileBatch places them on over base, the golden design
// the DUTs are mutants of (a DUT may alias it). DUTs that are the same
// *sim.Design get one lane between them: a design is simulated once per
// run however often the set repeats it. A DUTSet is immutable and safe
// to share across concurrent runs.
type DUTSet struct {
	duts  []*sim.Design
	progs []*sim.BatchProgram
	// outs[k] is progs[k]'s output port list, the one its lanes are
	// recorded and compared on: its base's, which only a program of a
	// design with a layout of its own can change.
	outs [][]string
	// at[i] is DUT i's program lane.
	at []laneRef
}

type laneRef struct{ prog, lane int }

// NewDUTSet compiles duts into batch programs over base. out[i] of
// every run of the set is duts[i]'s outcome.
func NewDUTSet(base *sim.Design, duts []*sim.Design) *DUTSet {
	s := &DUTSet{duts: duts, at: make([]laneRef, len(duts))}
	seen := make(map[*sim.Design]bool, len(duts))
	var designs []*sim.Design // each design once, in set order
	for _, d := range duts {
		if !seen[d] {
			seen[d] = true
			designs = append(designs, d)
		}
	}
	s.progs = sim.CompileBatch(base, designs)
	at := make(map[*sim.Design]laneRef, len(designs))
	for k, p := range s.progs {
		s.outs = append(s.outs, outputPorts(p.Base()))
		for lane := 0; lane < p.Lanes(); lane++ {
			at[p.LaneDesign(lane)] = laneRef{k, lane}
		}
	}
	for i, d := range duts {
		s.at[i] = at[d]
	}
	return s
}

// checkerTrace returns the checker design cd's trace over the output
// ports outs: cd recorded as a one-design DUT set, a one-lane program,
// on tb's store. The checker side never stops early, so every scenario
// it simulates is stored for later runs.
//
// ctx is used for observation only: a recording records a sim_run span
// on ctx's obs collector, but is never cancelled by it — the checker
// trace a run compares with must not depend on a caller's
// cancellation.
func (tb *Testbench) checkerTrace(ctx context.Context, st *TraceStore, cd *sim.Design, stim *stimulus, outs []string) *trace {
	// Never cancelled, so the recording cannot fail.
	rec, _ := tb.recordSet(context.WithoutCancel(ctx), st, st.single(cd), stim, [][]string{outs}, ErrChecker, nil, false)
	return rec[0]
}

// runSpan is one set recording's sim_run span. It is opened at the
// recording's first simulated scenario, so a recording the store serves
// whole opens none.
type runSpan struct {
	ctx context.Context
	end func()
}

func (s *runSpan) open() {
	if s.end == nil {
		s.end = obs.Time(s.ctx, obs.PhaseRun)
	}
}

func (s *runSpan) close() {
	if s.end != nil {
		s.end()
	}
}

// sample appends a row to st, lane-major, with every active lane's
// values of the readable slots; the other entries keep the zero the
// samples' allocation gave them.
func sample(b *sim.BatchInstance, st *scenarioTrace, slots []int, readable []bool) {
	w := len(slots)
	at := len(st.samples)
	st.samples = st.samples[:at+b.Lanes()*w]
	st.rows++
	for lane := 0; lane < b.Lanes(); lane++ {
		if !b.Active(lane) {
			continue
		}
		for o, slot := range slots {
			if !readable[o] {
				continue
			}
			i := at + lane*w + o
			if a, bv, ok := b.SlotWord(slot, lane); ok {
				st.samples[i] = traceSample{a: a, b: bv}
				continue
			}
			v := b.GetSlot(slot, lane)
			st.samples[i], _ = sampleOf(v)
			st.wide = append(st.wide, wideSample{at: int32(i), v: v})
		}
	}
}

// record assembles prog's trace over the testbench's scenarios,
// sampling the outputs outs before each clock edge and, for SEQ
// problems, after it. unit is prog's identity in the store: the
// design of a one-lane program — whose lane is exactly that design —
// and the program otherwise. Each scenario is read from the store when
// it holds the piece, and otherwise simulated: the program's instance
// is built, and span opened, at the first scenario simulated, and reset
// before each later one. A lane's first error — its own, or a
// stimulus-side error of the shared drive, which ends every lane still
// running — ends the lane at its (scenario, step, phase), and side
// ("dut" or "checker") and the scenario's Index prefix its text. After
// each scenario, settled (when non-nil) is asked about every lane still
// running and the lanes it reports are no longer simulated; hits and
// simulated scenarios end lanes alike.
//
// With a non-nil recorded (keep), a scenario is simulated on every lane
// of the unit, from a fresh state — a lane this run has ended too,
// though the run ignores it — so each piece is complete: a later run
// that reaches the scenario with that lane still running can read it.
// The pieces go into recorded, for the caller to store, and a scenario
// the recording repeats is read from there. Without keep, only the
// lanes still running are simulated and nothing is kept. The returned
// error is non-nil only on cancellation of ctx, and then no trace is
// returned.
func (tb *Testbench) record(ctx context.Context, st *TraceStore, unit any, prog *sim.BatchProgram, stim *stimulus, outs []string, side error, span *runSpan, settled func(tr *trace, lane, s int) bool, recorded map[pieceKey]*piece) (*trace, error) {
	n, w := prog.Lanes(), len(outs)
	tr := &trace{readable: make([]bool, w), fails: make([]*traceFail, n)}
	slots := make([]int, w)
	for i, o := range outs {
		slots[i], tr.readable[i] = prog.Base().SlotOf(o)
	}
	key := pieceKey{unit: unit, kind: stim.kind, clock: stim.clock, reset: stim.reset, outs: strings.Join(outs, "\x00")}
	active := make([]bool, n)
	for lane := range active {
		active[lane] = true
	}
	running, keep := n, recorded != nil
	var b *sim.BatchInstance
	for s, sc := range tb.Scenarios {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if running == 0 {
			break
		}
		key.drives = stim.drives[s]
		pc := st.piece(key)
		if pc == nil && keep {
			pc = recorded[key]
		}
		if pc == nil {
			if b == nil {
				span.open()
				b = sim.NewBatchInstance(prog)
				b.BindContext(ctx)
			} else {
				b.Reset()
			}
			if !keep {
				for lane, a := range active {
					if !a {
						b.Deactivate(lane)
					}
				}
			}
			var err error
			if pc, err = tb.simulate(ctx, b, sc, slots, tr.readable); err != nil {
				return nil, err
			}
			if keep {
				recorded[key] = pc
			}
		}
		tr.scenarios = append(tr.scenarios, pc.scenarioTrace)
		for _, f := range pc.fails {
			if active[f.lane] {
				tr.fails[f.lane] = &traceFail{s, f.step, f.phase, failErr(side, sc.Index, f.step, f.phase, f.err)}
				active[f.lane] = false
				running--
			}
		}
		if settled != nil {
			for lane := range active {
				if active[lane] && settled(tr, lane, s) {
					active[lane] = false
					running--
				}
			}
		}
	}
	return tr, nil
}

// simulate records one scenario on b, reset, with the run's active
// lanes: its sample rows and the first error of each lane that errs in
// it. The returned error is non-nil only on cancellation of ctx.
func (tb *Testbench) simulate(ctx context.Context, b *sim.BatchInstance, sc Scenario, slots []int, readable []bool) (*piece, error) {
	p := tb.Problem
	n, w := b.Lanes(), len(slots)
	// going[lane] is true for a lane that entered the scenario and has
	// not erred in it.
	going := make([]bool, n)
	for lane := range going {
		going[lane] = b.Active(lane)
	}
	perStep := 1
	if p.Kind == dataset.SEQ {
		perStep = 2
	}
	pc := &piece{scenarioTrace: scenarioTrace{samples: make([]traceSample, 0, len(sc.Steps)*perStep*n*w)}}
	// end harvests the lanes that erred at (step, phase), each lane's
	// own error before a shared one, and reports whether the scenario
	// goes on.
	end := func(step, phase int, shared error) (bool, error) {
		if shared != nil {
			if err := ctx.Err(); err != nil {
				return false, err
			}
		}
		for lane := 0; lane < n; lane++ {
			if !going[lane] {
				continue
			}
			err := b.LaneErr(lane)
			if err == nil && shared != nil && b.Active(lane) {
				err = shared
				b.Deactivate(lane)
			}
			if err != nil {
				going[lane] = false
				pc.fails = append(pc.fails, pieceFail{lane, step, phase, err})
			}
		}
		return b.ActiveCount() > 0, nil
	}
	row := func() { sample(b, &pc.scenarioTrace, slots, readable) }
	more, err := end(-1, phaseInit, tb.initLanes(b))
	for si := 0; more && err == nil && si < len(sc.Steps); si++ {
		if more, err = end(si, phaseStep, driveStep(b, sc.Steps[si])); !more || err != nil {
			break
		}
		// Sample combinational/Mealy outputs before the clock edge.
		row()
		if p.Kind == dataset.SEQ {
			if more, err = end(si, phaseTick, b.Tick(p.Clock)); !more || err != nil {
				break
			}
			// Sample registered outputs after the edge as well.
			row()
		}
	}
	if err != nil {
		return nil, err
	}
	return pc, nil
}

// failErr is err marked with side and prefixed with where the run
// stopped: side, scenario, step and phase.
func failErr(side error, scenario, step, phase int, err error) error {
	switch phase {
	case phaseInit:
		return fmt.Errorf("%w: scenario %d init: %w", side, scenario, err)
	case phaseStep:
		return fmt.Errorf("%w: scenario %d step %d: %w", side, scenario, step, err)
	}
	return fmt.Errorf("%w: scenario %d step %d tick: %w", side, scenario, step, err)
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
	dt, ct := &dut.scenarios[s], &chk.scenarios[s]
	wide := len(dt.wide) > 0 || len(ct.wide) > 0
	for r := 0; r < rows; r++ {
		di := (r*len(dut.fails) + lane) * w
		for o, c := range ct.samples[r*w : (r+1)*w] {
			d := dt.samples[di+o]
			if d != c {
				return false
			}
			if wide && !sameSample(d, dt.wideAt(di+o), c, ct.wideAt(r*w+o)) {
				return false
			}
		}
	}
	return true
}

// compareLane is a DUT lane's outcome against the checker over a run of
// ns scenarios: the error that ends its run if the run reaches one,
// else its per-scenario verdicts. With earlyExit the run ends after the
// first failing scenario.
func compareLane(dut, chk *trace, lane, ns int, earlyExit bool) BatchOutcome {
	f := laneFail(dut, chk, lane)
	res := &RunResult{ScenarioPass: make([]bool, ns)}
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
// checker is recorded once per output port list (checkerTrace); each
// distinct DUT design is recorded once, as a program lane, and compared
// on its program's output ports. A checker that does not elaborate is
// every DUT's ErrChecker error. Every scenario tb's trace store already
// holds for a unit is read, not simulated.
//
// With earlyExit=false every lane is recorded through every scenario,
// or until it errs, and the recording is stored for later runs — of
// this checker or of any other on the store. With earlyExit=true a lane
// stops simulating once its outcome is settled, and nothing of the DUT
// side is stored. The returned error is non-nil only on cancellation of
// ctx, and then nothing of the DUT side is stored.
func (tb *Testbench) RunBatchContext(ctx context.Context, set *DUTSet, earlyExit bool) ([]BatchOutcome, error) {
	out := make([]BatchOutcome, len(set.duts))
	if len(out) == 0 {
		return out, nil
	}
	cd, err := tb.checkerDesignContext(ctx)
	if err != nil {
		err = fmt.Errorf("%w: %w", ErrChecker, err)
		for i := range out {
			out[i].Err = err
		}
		return out, nil
	}
	st, stim := tb.traceStore(), newStimulus(tb)
	// chks[k] is the checker trace program k's lanes are compared with,
	// over that program's output ports.
	chks := make([]*trace, len(set.progs))
	for k, outs := range set.outs {
		if j := slices.IndexFunc(set.outs[:k], func(o []string) bool { return slices.Equal(o, outs) }); j >= 0 {
			chks[k] = chks[j]
		} else {
			chks[k] = tb.checkerTrace(ctx, st, cd, stim, outs)
		}
	}
	rec, err := tb.recordSet(ctx, st, set, stim, set.outs, errDUT, chks, earlyExit)
	if err != nil {
		return nil, err
	}
	for i, at := range set.at {
		out[i] = compareLane(rec[at.prog], chks[at.prog], at.lane, len(tb.Scenarios), earlyExit)
	}
	return out, nil
}

// recordSet records every program of set over stim as one sim_run,
// opened only if some scenario is simulated, and returns a trace per
// program. Program k records its lanes over the output ports outs[k].
// With earlyExit a lane stops once its outcome against chks[k], the
// checker trace it is compared with, is settled, and nothing is stored;
// otherwise every lane is recorded through every scenario and the
// pieces simulated are stored once every program is recorded. The
// returned error is non-nil only on cancellation of ctx, and then
// nothing is stored.
func (tb *Testbench) recordSet(ctx context.Context, st *TraceStore, set *DUTSet, stim *stimulus, outs [][]string, side error, chks []*trace, earlyExit bool) ([]*trace, error) {
	span := &runSpan{ctx: ctx}
	defer span.close()
	rec := make([]*trace, len(set.progs))
	var recorded map[pieceKey]*piece
	if !earlyExit {
		recorded = map[pieceKey]*piece{}
	}
	for k, p := range set.progs {
		var unit any = p
		if p.Lanes() == 1 {
			unit = p.LaneDesign(0)
		}
		// settled stops a lane once its outcome is known.
		var settled func(tr *trace, lane, s int) bool
		if earlyExit {
			chk := chks[k]
			settled = func(tr *trace, lane, s int) bool {
				if f := laneFail(tr, chk, lane); f != nil && f.scenario <= s {
					return true
				}
				return !lanePass(tr, chk, lane, s)
			}
		}
		var err error
		if rec[k], err = tb.record(ctx, st, unit, p, stim, outs[k], side, span, settled, recorded); err != nil {
			return nil, err
		}
	}
	st.add(recorded)
	return rec, nil
}

// initLanes starts a scenario: every input zero and, for SEQ problems
// with a reset, one clock cycle with the reset asserted.
func (tb *Testbench) initLanes(b *sim.BatchInstance) error {
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

// driveStep drives one step's inputs on every active lane in sorted
// port-name order and settles. The order matters: SetInput propagates
// after every input, and designs with internal feedback (notably
// mutated RTLs, which can latch) can settle differently depending on
// which input moves first. Deferrable batches (pure-blocking levelized
// comb, no sequential processes) apply the whole step under a single
// settle — same final state, one levelized pass instead of one per
// input.
func driveStep(b *sim.BatchInstance, st Step) error {
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
