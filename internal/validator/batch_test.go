package validator_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"correctbench/internal/autobench"
	"correctbench/internal/corrector"
	"correctbench/internal/dataset"
	"correctbench/internal/llm"
	"correctbench/internal/mutate"
	"correctbench/internal/obs"
	"correctbench/internal/sim"
	"correctbench/internal/tbtest"
	"correctbench/internal/testbench"
	"correctbench/internal/validator"
	"correctbench/internal/verilog"
)

// oracleMatrix is the RS matrix built the straightforward way: every
// candidate parsed, elaborated and simulated on its own side by side
// with the checker on the reference AST interpreter (tbtest.RunLive),
// in group order, with DUT-side failures discarded and any
// checker-side failure breaking the testbench.
func oracleMatrix(t *testing.T, tb *testbench.Testbench, cands []validator.RTLCandidate) (string, bool) {
	t.Helper()
	if !tb.SyntaxOK() {
		return "", false
	}
	ctx := context.Background()
	var chk *sim.Design
	scenarios := make([]tbtest.Scenario, len(tb.Scenarios))
	for i, sc := range tb.Scenarios {
		scenarios[i].Index = sc.Index
		for _, st := range sc.Steps {
			scenarios[i].Steps = append(scenarios[i].Steps, tbtest.Step{Names: st.SortedNames(), Inputs: st.Inputs})
		}
	}
	m := &validator.Matrix{}
	for _, c := range cands {
		dut, err := sim.ElaborateSourceContext(ctx, c.Source, tb.Problem.Top)
		if err != nil {
			m.Discarded++
			continue
		}
		if chk == nil {
			if chk, err = sim.ElaborateSourceContext(ctx, tb.CheckerSource, tb.CheckerTop); err != nil {
				return "", false
			}
		}
		pass, err := tbtest.RunLive(ctx, tb.Problem, dut, chk, scenarios)
		if err != nil {
			if strings.HasPrefix(err.Error(), "checker:") {
				return "", false
			}
			m.Discarded++
			continue
		}
		m.Rows = append(m.Rows, pass)
	}
	return m.Render(), true
}

// oscillatingChecker returns a copy of tb whose checker carries a
// combinational loop that oscillates while any bit of the trigger
// signal is set: the checker simulates fine from reset and then errors
// mid-scenario, at the first step that makes the trigger nonzero.
func oscillatingChecker(tb *testbench.Testbench, trigger string) *testbench.Testbench {
	bad := tb.WithChecker(strings.Replace(tb.CheckerSource, "endmodule",
		"wire cb_osc;\nassign cb_osc = (|"+trigger+") ? ~cb_osc : 1'b0;\nendmodule", 1),
		tb.CheckerPlan, tb.CheckerSticky)
	return bad
}

// oscillationTrigger names the problem's first input port that is
// neither its clock nor its reset (zero at reset, driven by the
// stimulus) or, for designs without one such as free-running counters,
// its first output port.
func oscillationTrigger(t *testing.T, p *dataset.Problem) string {
	t.Helper()
	d, err := p.Elaborate()
	if err != nil {
		t.Fatal(err)
	}
	for _, port := range d.Ports {
		if port.Dir == sim.In && port.Name != p.Clock && port.Name != p.Reset {
			return port.Name
		}
	}
	for _, port := range d.Ports {
		if port.Dir == sim.Out {
			return port.Name
		}
	}
	t.Fatalf("%s has no trigger port", p.Name)
	return ""
}

// TestBatchedRSMatrixDifferential is the gate for batched RS-matrix
// validation over real validator traffic: for every problem, an N_R =
// 20 group, an AutoBench testbench whose checker is faulty, the
// testbench after one corrector round, and a testbench whose checker
// errors mid-scenario must each give a *Group matrix whose rendering
// and viability are byte-identical to the per-candidate interpreter
// oracle. A group of nothing but syntax-broken candidates must give
// zero rows, every candidate discarded, and a SimulationBroken verdict.
func TestBatchedRSMatrixDifferential(t *testing.T) {
	prof := *llm.GPT4o()
	prof.CheckerCleanBase = 0 // every understood task gets an observably faulty checker
	gen := &autobench.AutoBench{Profile: &prof}
	corr := &corrector.Corrector{Profile: &prof}
	var checkerErrs atomic.Int32
	for i, p := range dataset.All() {
		i, p := i, p
		t.Run(p.Name, func(t *testing.T) {
			ctx := context.Background()
			rng := rand.New(rand.NewSource(int64(9000 + i)))
			var acct llm.Accountant
			cands, err := validator.GenerateRTLGroup(p, &prof, 20, rng, &acct)
			if err != nil {
				t.Fatal(err)
			}
			group, err := validator.NewGroup(ctx, p, cands)
			if err != nil {
				t.Fatal(err)
			}
			check := func(label string, tb *testbench.Testbench) *validator.Report {
				t.Helper()
				want, wantOK := oracleMatrix(t, tb, cands)
				m, ok, err := validator.BuildMatrix(ctx, tb, group)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if ok != wantOK {
					t.Fatalf("%s: batched ok=%v, oracle ok=%v", label, ok, wantOK)
				}
				if !ok {
					return &validator.Report{SimulationBroken: true}
				}
				if got := m.Render(); got != want {
					t.Fatalf("%s: RS matrices differ\nbatched:\n%s\noracle:\n%s", label, got, want)
				}
				return validator.Wrong70.Judge(m)
			}

			trait := prof.SampleTrait(p.Difficulty, p.Kind == dataset.SEQ, rng)
			tb, err := gen.Generate(p, trait, rng, &acct)
			if err != nil {
				t.Fatal(err)
			}
			rep := check("generated", tb)
			fixed, _ := corr.Correct(tb, rep, rng, &acct)
			check("corrected", fixed)

			osc := oscillatingChecker(fixed, oscillationTrigger(t, p))
			if _, ok := oracleMatrix(t, osc, cands); !ok && osc.SyntaxOK() {
				checkerErrs.Add(1)
			}
			check("oscillating checker", osc)

			bad := make([]validator.RTLCandidate, 20)
			for k := range bad {
				bad[k] = validator.RTLCandidate{Source: "module " + p.Top + " (", SyntaxBad: true}
			}
			badGroup, err := validator.NewGroup(ctx, p, bad)
			if err != nil {
				t.Fatal(err)
			}
			rep, err = validator.Wrong70.Validate(ctx, fixed, badGroup)
			if err != nil {
				t.Fatal(err)
			}
			if fixed.SyntaxOK() && (rep.Matrix == nil || rep.Matrix.NR() != 0 || rep.Matrix.Discarded != len(bad)) {
				t.Fatalf("all-syntax-bad group: matrix %+v, want 0 rows and %d discarded", rep.Matrix, len(bad))
			}
			if rep.Correct || !rep.SimulationBroken {
				t.Fatalf("all-syntax-bad group: verdict %+v, want broken", rep)
			}
		})
	}
	t.Cleanup(func() {
		if n := checkerErrs.Load(); n < 100 {
			t.Errorf("only %d problems exercised a mid-scenario checker error", n)
		}
	})
}

// cancelAfter is a cancellable context whose Err starts reporting
// context.Canceled after a fixed number of polls, so a test can cancel
// deterministically at every point where the code under test looks.
type cancelAfter struct {
	context.Context
	done chan struct{} // never closed; non-nil so the simulator polls Err
	left atomic.Int64
}

func newCancelAfter(polls int64) *cancelAfter {
	c := &cancelAfter{Context: context.Background(), done: make(chan struct{})}
	c.left.Store(polls)
	return c
}

func (c *cancelAfter) Done() <-chan struct{} { return c.done }

func (c *cancelAfter) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// batchCancelGroup builds a small group covering every row kind: the
// generated candidates (mutated, correct, syntax-broken), one more
// syntax-broken source and one that elaborates but cannot share the
// batch program (an extra signal), which gets a one-lane program of its
// own.
func batchCancelGroup(t *testing.T, p *dataset.Problem) []validator.RTLCandidate {
	t.Helper()
	var acct llm.Accountant
	cands, err := validator.GenerateRTLGroup(p, llm.GPT4o(), 6, rand.New(rand.NewSource(5)), &acct)
	if err != nil {
		t.Fatal(err)
	}
	return append(cands,
		validator.RTLCandidate{Source: "module " + p.Top + " (", SyntaxBad: true},
		validator.RTLCandidate{Source: strings.Replace(p.Source, "endmodule",
			"wire cancel_pad;\nassign cancel_pad = 1'b0;\nendmodule", 1)})
}

// TestBatchCancellation cancels at every context poll of NewGroup and
// of BuildMatrix in turn, on a group that runs as batch lanes
// plus a row on a one-lane program of its own (cnt8) and on one whose
// golden design has a $display body, which runs on the interpreter's
// rules in every lane. A cancelled call must return the
// context's error and nothing else — no group, no matrix, no broken
// verdict and no discarded rows — and a call the cancellation misses
// must return exactly the uncancelled result. The build is swept
// twice: on a fresh group per cancellation point, so the cancellation
// lands in the recording of the candidates' lanes (after which the
// same group must still build the uncancelled matrix: a cancelled
// recording keeps nothing), and on a warm group, whose rounds replay
// the recorded lanes, polling only at entry, and simulate nothing.
func TestBatchCancellation(t *testing.T) {
	cnt8 := dataset.ByName("cnt8")
	mux := dataset.ByName("mux2_w4")
	display := &dataset.Problem{
		Name: "mux2_w4_display", Kind: mux.Kind, Spec: mux.Spec, Top: mux.Top, Difficulty: mux.Difficulty,
		Source: strings.Replace(mux.Source, "endmodule",
			"always @(*) if (sel === 1'bx) $display(\"x-sel\");\nendmodule", 1),
	}
	for _, p := range []*dataset.Problem{cnt8, display} {
		t.Run(p.Name, func(t *testing.T) { testBatchCancellation(t, p) })
	}
}

func testBatchCancellation(t *testing.T, p *dataset.Problem) {
	cands := batchCancelGroup(t, p)

	for polls := int64(0); ; polls++ {
		g, err := validator.NewGroup(newCancelAfter(polls), p, cands)
		if err == nil {
			if polls == 0 {
				t.Fatal("NewGroup ignored a context cancelled from the start")
			}
			break
		}
		if !errors.Is(err, context.Canceled) || g != nil {
			t.Fatalf("NewGroup cancelled after %d polls: group %v, err %v", polls, g, err)
		}
	}

	newGroup := func() *validator.Group {
		t.Helper()
		group, err := validator.NewGroup(context.Background(), p, cands)
		if err != nil {
			t.Fatal(err)
		}
		return group
	}
	scs, err := testbench.GenerateScenarios(p, rand.New(rand.NewSource(6)), testbench.Coverage{Scenarios: 3, Steps: 4})
	if err != nil {
		t.Fatal(err)
	}
	tb := &testbench.Testbench{Problem: p, Scenarios: scs, CheckerSource: p.Source, CheckerTop: p.Top, CheckerSticky: -1}
	warm := newGroup()
	ref, ok, err := validator.BuildMatrix(context.Background(), tb, warm)
	if err != nil || !ok {
		t.Fatalf("uncancelled build: ok=%v err=%v", ok, err)
	}
	if ref.Discarded == 0 || ref.NR() == 0 {
		t.Fatalf("uncancelled build: %d rows, %d discarded; want both kinds", ref.NR(), ref.Discarded)
	}
	want := ref.Render()

	for _, sweep := range []struct {
		name  string
		group func() *validator.Group
	}{
		{"recording", newGroup},
		{"replay", func() *validator.Group { return warm }},
	} {
		for polls := int64(0); ; polls++ {
			group := sweep.group()
			m, ok, err := validator.BuildMatrix(newCancelAfter(polls), tb, group)
			if err == nil {
				if !ok || m.Render() != want {
					t.Fatalf("%s: build after %d polls: ok=%v matrix\n%v\nwant\n%s", sweep.name, polls, ok, m, want)
				}
				if sweep.name == "recording" && polls < 10 {
					t.Fatalf("%s: build finished after only %d polls; the sweep tested nothing", sweep.name, polls)
				}
				break
			}
			if !errors.Is(err, context.Canceled) || m != nil || ok {
				t.Fatalf("%s: build cancelled after %d polls: matrix %v, ok=%v, err %v", sweep.name, polls, m, ok, err)
			}
			if m, ok, err := validator.BuildMatrix(context.Background(), tb, group); err != nil || !ok || m.Render() != want {
				t.Fatalf("%s: build after a cancellation at %d polls: ok=%v err=%v matrix\n%v\nwant\n%s", sweep.name, polls, ok, err, m, want)
			}
		}
	}
	col := obs.NewCollector(time.Time{})
	if _, ok, err := validator.BuildMatrix(obs.WithCollector(context.Background(), col), tb, warm); err != nil || !ok {
		t.Fatalf("warm build: ok=%v err=%v", ok, err)
	}
	for _, s := range col.Samples() {
		if s.Phase == obs.PhaseRun || s.Phase == obs.PhaseElaborate {
			t.Errorf("warm round opened a %s span; it must replay every recording", s.Phase)
		}
	}
}

// TestBatchValidationRoundTrace pins the attribution of a validation
// round: the group's candidates are elaborated before the round, so
// the round's direct children are the checker's elaboration, the
// recording of its trace (a sim_run) and the recording of the
// candidates' lanes (another sim_run). A second round over the same
// testbench replays both recordings: no elaboration and no sim_run. A
// round over a corrected checker (same stimulus, new checker source)
// elaborates and records the new checker — exactly one sim_run — and
// replays the recorded lanes.
func TestBatchValidationRoundTrace(t *testing.T) {
	p := dataset.ByName("cnt8")
	var acct llm.Accountant
	rng := rand.New(rand.NewSource(8))
	cands, err := validator.GenerateRTLGroup(p, llm.GPT4o(), 20, rng, &acct)
	if err != nil {
		t.Fatal(err)
	}
	col := obs.NewCollector(time.Time{})
	ctx := obs.WithCollector(context.Background(), col)
	group, err := validator.NewGroup(ctx, p, cands)
	if err != nil {
		t.Fatal(err)
	}
	scs, err := testbench.GenerateScenarios(p, rng, testbench.Coverage{Scenarios: 6, Steps: 8, Corners: true})
	if err != nil {
		t.Fatal(err)
	}
	tb := &testbench.Testbench{Problem: p, Scenarios: scs, CheckerSource: p.Source, CheckerTop: p.Top, CheckerSticky: -1}

	round := func(tb *testbench.Testbench) map[string]int {
		end := col.Start(obs.PhaseSimulate)
		if _, ok, err := validator.BuildMatrix(ctx, tb, group); err != nil || !ok {
			t.Fatalf("build: ok=%v err=%v", ok, err)
		}
		end()
		samples := col.Samples()
		seq := samples[len(samples)-1].Seq // the round's simulate phase closes last
		children := map[string]int{}
		for _, s := range samples {
			if s.ParentSeq == seq {
				children[s.Phase]++
			}
		}
		return children
	}
	if got := round(tb); got[obs.PhaseElaborate] != 1 || got[obs.PhaseRun] != 2 {
		t.Errorf("cold round children %v, want 1 %s (checker) and 2 %s (checker trace + lanes)",
			got, obs.PhaseElaborate, obs.PhaseRun)
	}
	if got := round(tb); got[obs.PhaseElaborate] != 0 || got[obs.PhaseRun] != 0 {
		t.Errorf("warm round children %v, want no %s and no %s", got, obs.PhaseElaborate, obs.PhaseRun)
	}
	fixed := tb.WithChecker(strings.Replace(p.Source, "endmodule", "wire corrected_pad;\nendmodule", 1), tb.CheckerPlan, tb.CheckerSticky)
	if got := round(fixed); got[obs.PhaseElaborate] != 1 || got[obs.PhaseRun] != 1 {
		t.Errorf("corrected-checker round children %v, want 1 %s and 1 %s (the checker trace; lanes replayed)",
			got, obs.PhaseElaborate, obs.PhaseRun)
	}
}

// replayCase is one problem's fixture for the replay tests: an N_R = 20
// group and a generated testbench whose driver the group has not yet
// seen.
type replayCase struct {
	p     *dataset.Problem
	cands []validator.RTLCandidate
	group *validator.Group
	tb    *testbench.Testbench
	rng   *rand.Rand
}

// replayProblems covers combinational and sequential problems, with and
// without a reset.
var replayProblems = []string{"mux2_w4", "adder8", "prio_enc8", "cnt8", "det101", "fifo2", "shift18"}

func newReplayCase(t *testing.T, name string, seed int64) *replayCase {
	t.Helper()
	p := dataset.ByName(name)
	prof := *llm.GPT4o()
	prof.CheckerCleanBase = 0
	rng := rand.New(rand.NewSource(seed))
	var acct llm.Accountant
	cands, err := validator.GenerateRTLGroup(p, &prof, 20, rng, &acct)
	if err != nil {
		t.Fatal(err)
	}
	group, err := validator.NewGroup(context.Background(), p, cands)
	if err != nil {
		t.Fatal(err)
	}
	gen := &autobench.AutoBench{Profile: &prof}
	tb, err := gen.Generate(p, prof.SampleTrait(p.Difficulty, p.Kind == dataset.SEQ, rng), rng, &acct)
	if err != nil {
		t.Fatal(err)
	}
	if !tb.SyntaxOK() {
		t.Fatalf("%s: generated testbench does not parse", name)
	}
	return &replayCase{p: p, cands: cands, group: group, tb: tb, rng: rng}
}

// round builds tb's matrix on the case's group and requires it to be
// byte-identical to the oracle, returning the number of sim_run spans
// the round recorded.
func (c *replayCase) round(t *testing.T, label string, tb *testbench.Testbench) int {
	t.Helper()
	want, wantOK := oracleMatrix(t, tb, c.cands)
	col := obs.NewCollector(time.Time{})
	m, ok, err := validator.BuildMatrix(obs.WithCollector(context.Background(), col), tb, c.group)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if ok != wantOK {
		t.Fatalf("%s: batched ok=%v, oracle ok=%v", label, ok, wantOK)
	}
	if ok && m.Render() != want {
		t.Fatalf("%s: RS matrices differ\nbatched:\n%s\noracle:\n%s", label, m.Render(), want)
	}
	runs := 0
	for _, s := range col.Samples() {
		if s.Phase == obs.PhaseRun {
			runs++
		}
	}
	return runs
}

// TestBatchReplayAfterEarlyFailingChecker opens a fresh group with a
// checker that errors mid-scenario and then judges the clean checker
// over the same driver. The first round must record the lanes through
// every scenario although its checker stops early, so the second round
// replays them (its only sim_run is the new checker's trace) and still
// matches the oracle on every scenario.
func TestBatchReplayAfterEarlyFailingChecker(t *testing.T) {
	for i, name := range replayProblems {
		t.Run(name, func(t *testing.T) {
			c := newReplayCase(t, name, int64(700+i))
			clean := c.tb.WithChecker(c.p.Source, mutate.Plan{}, -1)
			osc := oscillatingChecker(clean, oscillationTrigger(t, c.p))
			osc.DriverSource = clean.DriverSource
			if _, ok := oracleMatrix(t, osc, c.cands); ok {
				t.Fatalf("oscillating checker does not break the testbench")
			}
			if runs := c.round(t, "oscillating checker", osc); runs != 2 {
				t.Errorf("first round: %d sim_run, want 2 (checker trace + lanes)", runs)
			}
			if runs := c.round(t, "clean checker", clean); runs != 1 {
				t.Errorf("clean round: %d sim_run, want 1 (checker trace; lanes replayed)", runs)
			}
		})
	}
}

// TestBatchReplayInterpreterRow replays rows recorded outside the
// group's shared programs (the rows the interpreter once recorded): on
// cnt8 with an extra-signal candidate, which gets a one-lane program of
// its own, and on a problem whose golden design has a body that runs on
// the interpreter's rules ($display), as do every candidate and the
// checker. A first round with a faulty checker
// records the checker and the candidates; a second round with the
// corrected checker records only the checker — exactly one sim_run —
// and both rounds match the oracle byte for byte.
func TestBatchReplayInterpreterRow(t *testing.T) {
	mux := dataset.ByName("mux2_w4")
	display := &dataset.Problem{
		Name: "mux2_w4_display", Kind: mux.Kind, Spec: mux.Spec, Top: mux.Top, Difficulty: mux.Difficulty,
		Source: strings.Replace(mux.Source, "endmodule",
			"always @(*) if (sel === 1'bx) $display(\"x-sel\");\nendmodule", 1),
	}
	for _, p := range []*dataset.Problem{dataset.ByName("cnt8"), display} {
		t.Run(p.Name, func(t *testing.T) {
			cands := batchCancelGroup(t, p)
			group, err := validator.NewGroup(context.Background(), p, cands)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(12))
			scs, err := testbench.GenerateScenarios(p, rng, testbench.Coverage{Scenarios: 5, Steps: 6, Corners: true})
			if err != nil {
				t.Fatal(err)
			}
			golden, err := p.Module()
			if err != nil {
				t.Fatal(err)
			}
			clean := &testbench.Testbench{Problem: p, Scenarios: scs, CheckerSource: p.Source, CheckerTop: p.Top, CheckerSticky: -1}
			want, _ := oracleMatrix(t, clean, cands)
			// The first mutant checker that changes the matrix.
			var tb *testbench.Testbench
			for i := 0; tb == nil; i++ {
				if i == 20 {
					t.Fatal("no checker mutation changes the matrix")
				}
				mut, _, _ := mutate.Mutate(golden, rng, 1)
				faulty := clean.WithChecker(verilog.PrintModule(mut), mutate.Plan{}, -1)
				if got, ok := oracleMatrix(t, faulty, cands); ok && got != want {
					tb = faulty
				}
			}
			c := &replayCase{p: p, cands: cands, group: group}
			if runs := c.round(t, "faulty checker", tb); runs != 2 {
				t.Errorf("first round: %d sim_run, want 2 (checker trace + lanes)", runs)
			}
			if runs := c.round(t, "corrected checker", clean); runs != 1 {
				t.Errorf("corrected round: %d sim_run, want 1 (checker trace; candidate rows replayed)", runs)
			}
		})
	}
}

// TestBatchReplayInPlaceStimulusEdit edits the testbench's scenarios
// in place between two rounds over the same testbench value — one input
// of every step of the last scenario that drives any, or one more step
// for a design without data inputs — and the group and the checker
// trace must both notice and record again.
func TestBatchReplayInPlaceStimulusEdit(t *testing.T) {
	changed := 0
	for i, name := range replayProblems {
		t.Run(name, func(t *testing.T) {
			c := newReplayCase(t, name, int64(800+i))
			c.round(t, "before edit", c.tb)
			before, _ := oracleMatrix(t, c.tb, c.cands)
			edited := false
			for s := len(c.tb.Scenarios) - 1; s >= 0 && !edited; s-- {
				for _, st := range c.tb.Scenarios[s].Steps {
					if names := st.SortedNames(); len(names) > 0 {
						st.Inputs[names[len(names)-1]] ^= 1
						edited = true
					}
				}
			}
			if !edited {
				// A free-running design has no data input: lengthen the
				// last scenario instead.
				last := &c.tb.Scenarios[len(c.tb.Scenarios)-1]
				last.Steps = append(last.Steps, testbench.Step{Inputs: map[string]uint64{}})
			}
			if runs := c.round(t, "after edit", c.tb); runs != 2 {
				t.Errorf("edited round: %d sim_run, want 2 (checker trace + lanes recorded again)", runs)
			}
			if after, _ := oracleMatrix(t, c.tb, c.cands); after != before {
				changed++
			}
		})
	}
	if changed == 0 {
		t.Error("no edit changed an RS matrix; the test cannot tell a replayed stale recording from a fresh one")
	}
}

// TestBatchReplayReboot judges a testbench with new scenarios on the
// same group, as Algorithm 1 does after a reboot: the new driver's
// scenarios are recorded, and a correction after the reboot replays
// them.
func TestBatchReplayReboot(t *testing.T) {
	for i, name := range replayProblems {
		t.Run(name, func(t *testing.T) {
			c := newReplayCase(t, name, int64(900+i))
			c.round(t, "first driver", c.tb)
			scs, err := testbench.GenerateScenarios(c.p, c.rng, testbench.Coverage{Scenarios: 5, Steps: 6, Corners: true})
			if err != nil {
				t.Fatal(err)
			}
			next := &testbench.Testbench{Problem: c.p, Scenarios: scs, CheckerSource: c.tb.CheckerSource, CheckerTop: c.tb.CheckerTop, CheckerSticky: -1}
			if runs := c.round(t, "rebooted driver", next); runs != 2 {
				t.Errorf("rebooted round: %d sim_run, want 2 (checker trace + lanes)", runs)
			}
			if runs := c.round(t, "corrected after reboot", next.WithChecker(c.p.Source, mutate.Plan{}, -1)); runs != 1 {
				t.Errorf("corrected round: %d sim_run, want 1 (checker trace; lanes replayed)", runs)
			}
		})
	}
}

// TestBatchReplayConcurrent runs BuildMatrix from 8 goroutines
// on one shared group, alternating two drivers and two checkers so
// that recordings race each other. Every matrix must equal the
// oracle's; run under -race it also checks that the recordings are
// published safely.
func TestBatchReplayConcurrent(t *testing.T) {
	c := newReplayCase(t, "cnt8", 1000)
	other := newReplayCase(t, "cnt8", 1001).tb
	tbs := []*testbench.Testbench{
		c.tb, c.tb.WithChecker(c.p.Source, mutate.Plan{}, -1),
		other, other.WithChecker(c.p.Source, mutate.Plan{}, -1),
	}
	want := make([]string, len(tbs))
	wantOK := make([]bool, len(tbs))
	for i, tb := range tbs {
		want[i], wantOK[i] = oracleMatrix(t, tb, c.cands)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 6; r++ {
				i := (g + r/2) % len(tbs)
				// A testbench copy per goroutine. Copies share their
				// parent's trace store, so the checker's and the
				// group's recordings race on it.
				tb := tbs[i].WithChecker(tbs[i].CheckerSource, tbs[i].CheckerPlan, tbs[i].CheckerSticky)
				m, ok, err := validator.BuildMatrix(context.Background(), tb, c.group)
				switch {
				case err != nil:
					errs <- err
					return
				case ok != wantOK[i] || ok && m.Render() != want[i]:
					errs <- fmt.Errorf("goroutine %d round %d: testbench %d differs from the oracle", g, r, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
