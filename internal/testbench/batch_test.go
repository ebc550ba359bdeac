package testbench

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"correctbench/internal/dataset"
	"correctbench/internal/logic"
	"correctbench/internal/mutate"
	"correctbench/internal/obs"
	"correctbench/internal/sim"
	"correctbench/internal/verilog"
)

// batchDiffDUTs builds a DUT set for a problem: the base design itself,
// two structurally-incompatible clones that the base's programs do not
// accept, so each is recorded as a one-lane program of its own — one
// with an extra signal, one with an extra output port, compared on its
// own port list — and a set of single/double mutants.
func batchDiffDUTs(t *testing.T, tb *Testbench, base *sim.Design) []*sim.Design {
	t.Helper()
	p := tb.Problem
	duts := []*sim.Design{base} // aliasing the base is allowed

	withExtra := strings.Replace(p.Source, "endmodule",
		"wire batch_diff_pad;\nassign batch_diff_pad = 1'b0;\nendmodule", 1)
	if d, err := sim.ElaborateSourceContext(context.Background(), withExtra, p.Top); err == nil {
		duts = append(duts, d)
	}
	withPort := strings.Replace(strings.Replace(p.Source, "\n);", ",\n    output batch_diff_out\n);", 1),
		"endmodule", "assign batch_diff_out = 1'b0;\nendmodule", 1)
	if d, err := sim.ElaborateSourceContext(context.Background(), withPort, p.Top); err == nil {
		duts = append(duts, d)
	}

	mod, err := p.Module()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(33))
	for i := 0; i < 20 && len(duts) < 12; i++ {
		mut, muts, _ := mutate.Mutate(mod, rng, 1+i%2)
		if len(muts) == 0 {
			continue
		}
		d, err := sim.ElaborateSourceContext(context.Background(), verilog.PrintModule(mut), p.Top)
		if err != nil {
			continue
		}
		duts = append(duts, d)
	}
	if len(duts) < 5 {
		t.Fatalf("only %d elaborable DUTs", len(duts))
	}
	return duts
}

// TestBatchRunMatchesScalar is the testbench-layer differential gate:
// with earlyExit=false every batched lane — and every one-lane
// RunAgainstDesignContext run — must reproduce the interpreter run
// (runLive) of the same DUT exactly — same ScenarioPass vector, same
// error text when the run errors — and with earlyExit=true the
// killed/alive verdict must agree.
func TestBatchRunMatchesScalar(t *testing.T) {
	for _, name := range []string{"mux2_w4", "adder8", "prio_enc8", "cnt8", "det101", "fifo2"} {
		t.Run(name, func(t *testing.T) {
			tb := golden(t, name)
			p := tb.Problem
			base, err := sim.ElaborateSourceContext(context.Background(), p.Source, p.Top)
			if err != nil {
				t.Fatal(err)
			}
			duts := batchDiffDUTs(t, tb, base)

			set := NewDUTSet(base, duts)
			onBase := 0
			for _, p := range set.progs {
				if p.Base() == base {
					onBase += p.Lanes()
				}
			}
			if onBase < len(duts)/2 {
				t.Fatalf("only %d/%d DUTs run as lanes over the base", onBase, len(duts))
			}

			scalarRes := make([]*RunResult, len(duts))
			scalarErr := make([]error, len(duts))
			for i, d := range duts {
				scalarRes[i], scalarErr[i] = tb.runLive(context.Background(), d)
			}
			for i, d := range duts {
				res, err := tb.RunAgainstDesignContext(context.Background(), d)
				if (err != nil) != (scalarErr[i] != nil) || (err != nil && err.Error() != scalarErr[i].Error()) {
					t.Errorf("dut %d one-lane: err=%v, interp err=%v", i, err, scalarErr[i])
					continue
				}
				if err == nil && !reflect.DeepEqual(res.ScenarioPass, scalarRes[i].ScenarioPass) {
					t.Errorf("dut %d one-lane: ScenarioPass diverged\none-lane: %v\n  interp: %v", i, res.ScenarioPass, scalarRes[i].ScenarioPass)
				}
			}

			batch, err := tb.RunBatchContext(context.Background(), set, false)
			if err != nil {
				t.Fatal(err)
			}
			for i := range duts {
				lane := set.at[i]
				if (batch[i].Err != nil) != (scalarErr[i] != nil) {
					t.Errorf("dut %d (lane %v): batch err=%v, scalar err=%v", i, lane, batch[i].Err, scalarErr[i])
					continue
				}
				if batch[i].Err != nil {
					if batch[i].Err.Error() != scalarErr[i].Error() {
						t.Errorf("dut %d (lane %v): error text diverged\n batch: %v\nscalar: %v", i, lane, batch[i].Err, scalarErr[i])
					}
					continue
				}
				if !reflect.DeepEqual(batch[i].Res.ScenarioPass, scalarRes[i].ScenarioPass) {
					t.Errorf("dut %d (lane %v): ScenarioPass diverged\n batch: %v\nscalar: %v",
						i, lane, batch[i].Res.ScenarioPass, scalarRes[i].ScenarioPass)
				}
			}

			early, err := tb.RunBatchContext(context.Background(), NewDUTSet(base, duts), true)
			if err != nil {
				t.Fatal(err)
			}
			for i := range duts {
				sKilled := scalarErr[i] != nil || !scalarRes[i].Pass()
				bKilled := early[i].Err != nil || !early[i].Res.Pass()
				if sKilled != bKilled {
					t.Errorf("dut %d: earlyExit verdict diverged: batch killed=%v, scalar killed=%v", i, bKilled, sKilled)
				}
			}
		})
	}
}

// TestBatchRunWholesaleFallback drives the paths where a body of the
// base design or of the checker runs on the interpreter's rules
// ($display does not fold; the name is from when such a design was
// recorded on the interpreter wholesale): every DUT must still get its exact
// interpreter outcome, and the recordings must be replayed — a second
// run on the same trace store records nothing, neither the checker nor
// the DUTs.
func TestBatchRunWholesaleFallback(t *testing.T) {
	tb := golden(t, "mux2_w4")
	p := tb.Problem
	src := strings.Replace(p.Source, "endmodule",
		"always @(*) if (sel === 1'bx) $display(\"x-sel\");\nendmodule", 1)
	base, err := sim.ElaborateSourceContext(context.Background(), src, p.Top)
	if err != nil {
		t.Fatal(err)
	}
	if !sim.CompileBatch(base, []*sim.Design{base})[0].Interpreted() {
		t.Fatal("the $display design folds; the interpreted path is not covered")
	}
	golden, err := sim.ElaborateSourceContext(context.Background(), p.Source, p.Top)
	if err != nil {
		t.Fatal(err)
	}
	liveChecker := tb.WithChecker(src, tb.CheckerPlan, tb.CheckerSticky)
	for _, tc := range []struct {
		label string
		tb    *Testbench
		base  *sim.Design
	}{
		{"base", tb, base},
		{"checker", liveChecker, golden},
	} {
		set := NewDUTSet(tc.base, []*sim.Design{base, golden})
		for round := 0; round < 2; round++ {
			col := obs.NewCollector(time.Time{})
			batch, err := tc.tb.RunBatchContext(obs.WithCollector(context.Background(), col), set, false)
			if err != nil {
				t.Fatal(err)
			}
			for i, d := range set.duts {
				res, rerr := tc.tb.runLive(context.Background(), d)
				if (batch[i].Err != nil) != (rerr != nil) {
					t.Fatalf("%s dut %d: batch err=%v interp err=%v", tc.label, i, batch[i].Err, rerr)
				}
				if rerr == nil && !reflect.DeepEqual(batch[i].Res.ScenarioPass, res.ScenarioPass) {
					t.Errorf("%s dut %d: ScenarioPass diverged: %v vs %v", tc.label, i, batch[i].Res.ScenarioPass, res.ScenarioPass)
				}
			}
			if round == 0 {
				continue
			}
			for _, s := range col.Samples() {
				if s.Phase == obs.PhaseRun {
					t.Errorf("%s: second run opened a %s span; the recordings were not replayed", tc.label, obs.PhaseRun)
				}
			}
		}
	}
}

// TestBatchTraceSampleSameValue checks the compact trace sample against
// logic's SameValue over narrow, wide and mixed-width pairs, with
// unknown bits and values that differ only above bit 63.
func TestBatchTraceSampleSameValue(t *testing.T) {
	vals := []logic.Vector{
		logic.FromUint64(1, 1), logic.FromUint64(8, 1), logic.FromUint64(64, 1),
		logic.FromUint64(64, ^uint64(0)), logic.AllX(8), logic.AllX(64), logic.AllZ(4),
		logic.FromUint64(65, 1), logic.FromUint64(96, ^uint64(0)), logic.AllX(70),
		logic.MustParse("1" + strings.Repeat("0", 63) + "1"), // bit 64 set, low word 1
		logic.MustParse(strings.Repeat("0", 60) + "1x0z"),
	}
	for _, x := range vals {
		for _, y := range vals {
			xs, xw := sampleOf(x)
			ys, yw := sampleOf(y)
			if got, want := sameSample(xs, xw, ys, yw), x.SameValue(y); got != want {
				t.Errorf("%d'b%s vs %d'b%s: same=%v, SameValue=%v", x.Width(), x, y.Width(), y, got, want)
			}
		}
	}
}

// TestBatchWideOutputsCompare runs concat_repl_widths, whose outputs
// big and rw are 72 and 96 bits wide, through the recorder and the
// compare: DUTs that differ from the checker only above bit 63 fail,
// the golden passes, and when the checker declares big as 64 bits, a
// 72-bit value matches it exactly when its bits above 63 are zero
// (SameValue).
func TestBatchWideOutputsCompare(t *testing.T) {
	const src = `module m(input [3:0] a, input [6:0] b, input c, input [31:0] w,
         output [11:0] y, output [15:0] z, output [5:0] t, output [63:0] full,
         output [71:0] big, output [19:0] r, output [95:0] rw);
    assign y = {a, b, c};
    assign z = {a, b, c};
    assign t = {a, b, c};
    assign full = {w, w};
    assign big = {w, w, a, a};
    assign r = {{2{a}}, {3{c}}, {3{b[1:0]}}};
    assign rw = {3{w}};
endmodule
`
	p := &dataset.Problem{Name: "concat_repl_widths", Kind: dataset.CMB, Source: src, Top: "m"}
	tb, err := Golden(p, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	variant := func(from, to string) *sim.Design {
		t.Helper()
		d, err := sim.ElaborateSourceContext(context.Background(), strings.Replace(src, from, to, 1), "m")
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	base, err := p.Elaborate()
	if err != nil {
		t.Fatal(err)
	}
	run := func(tb *Testbench, duts []*sim.Design) []bool {
		t.Helper()
		outs, err := tb.RunBatchContext(context.Background(), NewDUTSet(base, duts), false)
		if err != nil {
			t.Fatal(err)
		}
		pass := make([]bool, len(outs))
		for i, o := range outs {
			if o.Err != nil {
				t.Fatalf("DUT %d: %v", i, o.Err)
			}
			pass[i] = o.Res.Pass()
		}
		return pass
	}
	duts := []*sim.Design{
		base,
		variant("{w, w, a, a}", "{w ^ 32'h01000000, w, a, a}"), // big differs at bit 64 only
		variant("{3{w}}", "{w ^ 32'h1, w, w}"),                 // rw differs at bit 64 only
		variant("{w, w, a, a}", "{8'd0, w[23:0], w, a, a}"),    // big's bits above 63 cleared
	}
	if got, want := run(tb, duts), []bool{true, false, false, false}; !slices.Equal(got, want) {
		t.Errorf("against the golden checker: pass %v, want %v", got, want)
	}
	narrow := &Testbench{Problem: p, Scenarios: tb.Scenarios, CheckerTop: "m", CheckerSticky: -1,
		CheckerSource: strings.Replace(strings.Replace(src, "output [71:0] big", "output [63:0] big", 1),
			"{w, w, a, a}", "{w[23:0], w, a, a}", 1)}
	if got, want := run(narrow, duts), []bool{false, false, false, true}; !slices.Equal(got, want) {
		t.Errorf("against a checker with a 64-bit big: pass %v, want %v", got, want)
	}
}

// TestBatchMemoKeepsNoCancelledRecording cancels a run at every
// context poll, each on a testbench with a trace store of its own: a
// cancelled run returns the context's error and stores nothing of the
// DUT side, and the first run the cancellation misses stores a
// recording that the next run replays — simulating nothing — to the
// same outcomes.
func TestBatchMemoKeepsNoCancelledRecording(t *testing.T) {
	tb := golden(t, "cnt8")
	p := tb.Problem
	base, err := sim.ElaborateSourceContext(context.Background(), p.Source, p.Top)
	if err != nil {
		t.Fatal(err)
	}
	set := NewDUTSet(base, batchDiffDUTs(t, tb, base))
	want, err := tb.RunBatchContext(context.Background(), set, false)
	if err != nil {
		t.Fatal(err)
	}
	for polls := int64(0); ; polls++ {
		fresh := &Testbench{Problem: p, Scenarios: tb.Scenarios, CheckerSource: tb.CheckerSource, CheckerTop: tb.CheckerTop, CheckerSticky: -1}
		got, err := fresh.RunBatchContext(newCancelAfter(polls), set, false)
		cd, _ := fresh.checkerDesignContext(context.Background())
		dutPieces := 0
		for unit, n := range storedPieces(fresh.traceStore()) {
			if unit != any(cd) {
				dutPieces += n
			}
		}
		if err != nil {
			if !errors.Is(err, context.Canceled) || dutPieces != 0 {
				t.Fatalf("cancelled after %d polls: err %v, %d DUT pieces stored", polls, err, dutPieces)
			}
			continue
		}
		if dutPieces == 0 {
			t.Fatalf("run after %d polls stored no DUT recording", polls)
		}
		col := obs.NewCollector(time.Time{})
		again, err := fresh.RunBatchContext(obs.WithCollector(context.Background(), col), set, false)
		if err != nil {
			t.Fatal(err)
		}
		if n := phaseCounts(col)[obs.PhaseRun]; n != 0 {
			t.Errorf("replay after %d polls opened %d %s spans, want none", polls, n, obs.PhaseRun)
		}
		for i := range want {
			if !sameOutcome(got[i], want[i]) || !sameOutcome(again[i], want[i]) {
				t.Fatalf("variant %d: recorded %v, replayed %v, want %v", i, got[i], again[i], want[i])
			}
		}
		if polls < 10 {
			t.Fatalf("run finished after only %d polls; the sweep tested nothing", polls)
		}
		return
	}
}

// storedPieces counts a trace store's pieces by unit.
func storedPieces(st *TraceStore) map[any]int {
	st.mu.Lock()
	defer st.mu.Unlock()
	n := map[any]int{}
	for k := range st.pieces {
		n[k.unit]++
	}
	return n
}

func sameOutcome(a, b BatchOutcome) bool {
	if (a.Err != nil) != (b.Err != nil) {
		return false
	}
	if a.Err != nil {
		return a.Err.Error() == b.Err.Error()
	}
	return reflect.DeepEqual(a.Res.ScenarioPass, b.Res.ScenarioPass)
}

// cancelAfter is a cancellable context whose Err starts reporting
// context.Canceled after a fixed number of polls.
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

// TestBatchLaneFailOrder pins the one error-ordering rule of trace
// compares: the earlier of a lane's own error and the checker's ends the
// run, and at the same (scenario, step, phase) the DUT's error wins, as
// in the interpreter runner, which drives the DUT side first.
func TestBatchLaneFailOrder(t *testing.T) {
	at := func(side string, scenario, step, phase int) *traceFail {
		return &traceFail{scenario, step, phase, errors.New(side)}
	}
	for _, tc := range []struct {
		dut, chk *traceFail
		want     string
	}{
		{nil, nil, ""},
		{at("dut", 1, 2, phaseStep), nil, "dut"},
		{nil, at("checker", 0, -1, phaseInit), "checker"},
		{at("dut", 1, 2, phaseTick), at("checker", 1, 2, phaseTick), "dut"},
		{at("dut", 0, -1, phaseInit), at("checker", 0, -1, phaseInit), "dut"},
		{at("dut", 1, 2, phaseTick), at("checker", 1, 2, phaseStep), "checker"},
		{at("dut", 1, 3, phaseStep), at("checker", 1, 2, phaseTick), "checker"},
		{at("dut", 1, -1, phaseInit), at("checker", 0, 7, phaseTick), "checker"},
		{at("dut", 0, 7, phaseTick), at("checker", 1, -1, phaseInit), "dut"},
	} {
		f := laneFail(&trace{fails: []*traceFail{tc.dut}}, &trace{fails: []*traceFail{tc.chk}}, 0)
		got := ""
		if f != nil {
			got = f.err.Error()
		}
		if got != tc.want {
			t.Errorf("dut %+v, checker %+v: %q ends the run, want %q", tc.dut, tc.chk, got, tc.want)
		}
	}
}

// TestBatchCheckerErrorsMarked: an outcome whose error is the
// testbench's own — a checker that does not elaborate, or one that
// fails mid-scenario — carries ErrChecker, and a DUT's own error does
// not; the texts keep their "checker: " and "dut: " prefixes.
func TestBatchCheckerErrorsMarked(t *testing.T) {
	ctx := context.Background()
	p := dataset.ByName("mux2_w4")
	trigger := firstDataInput(t, p)
	golden, err := p.Elaborate()
	if err != nil {
		t.Fatal(err)
	}
	osc, err := sim.ElaborateSourceContext(ctx, oscillating(p, trigger, true), p.Top)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, checker, top string
		dut                *sim.Design
		prefix             string
	}{
		{"checker does not elaborate", p.Source, "no_such_top", golden, "checker: 1:1: "},
		{"checker fails mid-scenario", oscillating(p, trigger, true), p.Top, golden, "checker: scenario 1 step 0: "},
		{"DUT fails mid-scenario", p.Source, p.Top, osc, "dut: scenario 1 step 0: "},
	} {
		tb := &Testbench{Problem: p, Scenarios: []Scenario{driving(p, 1, 2, trigger, 1, 0)}, CheckerSource: tc.checker, CheckerTop: tc.top, CheckerSticky: -1}
		outs, err := tb.RunBatchContext(ctx, NewDUTSet(tc.dut, []*sim.Design{tc.dut}), false)
		if err != nil {
			t.Fatal(err)
		}
		got := outs[0].Err
		if got == nil || !strings.HasPrefix(got.Error(), tc.prefix) {
			t.Fatalf("%s: outcome error %v, want one starting %q", tc.name, got, tc.prefix)
		}
		if marked, want := errors.Is(got, ErrChecker), strings.HasPrefix(tc.prefix, "checker"); marked != want {
			t.Errorf("%s: errors.Is(%q, ErrChecker) = %v, want %v", tc.name, got, marked, want)
		}
	}
}

// laneCount is the number of lanes a run of set records.
func laneCount(set *DUTSet) int {
	n := 0
	for _, p := range set.progs {
		n += p.Lanes()
	}
	return n
}

// TestBatchRepeatedDUTsShareLanes is the lane-sharing differential: a
// set that repeats designs, in the order [g, m1, g, m2, m1, d, d] — the
// golden, two mutants and a $display variant, whose extra process gives
// it a program of its own that runs a body on the interpreter's rules
// — must give every DUT the outcome it gets in a set where each
// entry was elaborated on its own, with and without early exit, on a
// fresh trace store and replayed from one, while recording one lane per
// distinct design.
func TestBatchRepeatedDUTsShareLanes(t *testing.T) {
	ctx := context.Background()
	for _, name := range []string{"mux2_w4", "prio_enc8", "cnt8", "det101"} {
		t.Run(name, func(t *testing.T) {
			tb := golden(t, name)
			p := tb.Problem
			elab := func(src string) *sim.Design {
				t.Helper()
				d, err := sim.ElaborateSourceContext(ctx, src, p.Top)
				if err != nil {
					t.Fatal(err)
				}
				return d
			}
			base := elab(p.Source)
			mod, err := p.Module()
			if err != nil {
				t.Fatal(err)
			}
			texts := []string{verilog.PrintModule(mod)}
			rng := rand.New(rand.NewSource(21))
			for i := 0; i < 50 && len(texts) < 3; i++ {
				mut, muts, _ := mutate.Mutate(mod, rng, 1)
				src := verilog.PrintModule(mut)
				if len(muts) == 0 || slices.Contains(texts, src) {
					continue
				}
				if _, err := sim.ElaborateSourceContext(ctx, src, p.Top); err == nil {
					texts = append(texts, src)
				}
			}
			if len(texts) < 3 {
				t.Fatal("fewer than two elaborable mutants")
			}
			// The $display watches the first data input or, for a
			// design with none, the first output.
			trigger := outputPorts(base)[0]
			for _, port := range base.Ports {
				if port.Dir == sim.In && port.Name != p.Clock && port.Name != p.Reset {
					trigger = port.Name
					break
				}
			}
			texts = append(texts, strings.Replace(texts[0], "endmodule",
				"always @(*) if ("+trigger+" === 1'bx) $display(\"x\");\nendmodule", 1))

			order := []int{0, 1, 0, 2, 1, 3, 3}
			designs := make([]*sim.Design, len(texts))
			for k, src := range texts {
				designs[k] = elab(src)
			}
			var repeated, own []*sim.Design
			for _, k := range order {
				repeated = append(repeated, designs[k])
				own = append(own, elab(texts[k]))
			}
			dup, sep := NewDUTSet(base, repeated), NewDUTSet(base, own)
			if got := laneCount(dup); got != len(texts) {
				t.Errorf("repeated set records %d lanes, want %d (one per distinct design)", got, len(texts))
			}
			if got := laneCount(sep); got != len(order) {
				t.Errorf("separately elaborated set records %d lanes, want %d", got, len(order))
			}
			if prog := dup.progs[dup.at[5].prog]; prog.Base() != dup.duts[5] || !prog.Interpreted() {
				t.Fatal("the $display variant shares the base's program or folds; its own interpreted program is not covered")
			}

			for c, checker := range texts[:2] {
				fresh := func() *Testbench {
					return &Testbench{Problem: p, Scenarios: tb.Scenarios, CheckerSource: checker, CheckerTop: p.Top, CheckerSticky: -1}
				}
				for _, early := range []bool{false, true} {
					want, err := fresh().RunBatchContext(ctx, sep, early)
					if err != nil {
						t.Fatal(err)
					}
					shared := fresh()
					for _, run := range []struct {
						label string
						tb    *Testbench
					}{{"fresh store", fresh()}, {"recording", shared}, {"replay", shared}} {
						got, err := run.tb.RunBatchContext(ctx, dup, early)
						if err != nil {
							t.Fatal(err)
						}
						if i := sameOutcomes(got, want); i >= 0 {
							t.Fatalf("checker %d earlyExit=%v %s: DUT %d outcome %+v, want %+v", c, early, run.label, i, got[i], want[i])
						}
						for i := range got {
							for j := i + 1; j < len(got); j++ {
								if got[i].Res != nil && got[j].Res != nil && len(got[i].Res.ScenarioPass) > 0 &&
									&got[i].Res.ScenarioPass[0] == &got[j].Res.ScenarioPass[0] {
									t.Fatalf("DUTs %d and %d share a ScenarioPass slice", i, j)
								}
							}
						}
					}
				}
			}
		})
	}
}

// BenchmarkTestbenchRunEngines measures a full golden-TB run on a
// sequential problem per engine: a one-lane batch against the recorded
// checker trace, and the interleaved interpreter oracle (runLive) the
// batched run must reproduce; every iteration must pass the golden RTL.
func BenchmarkTestbenchRunEngines(b *testing.B) {
	p := dataset.ByName("det101")
	d, err := p.Elaborate()
	if err != nil {
		b.Fatal(err)
	}
	for _, eng := range []struct {
		name string
		run  func(tb *Testbench) (*RunResult, error)
	}{
		{"batched", func(tb *Testbench) (*RunResult, error) { return tb.RunAgainstDesignContext(context.Background(), d) }},
		{"interp", func(tb *Testbench) (*RunResult, error) { return tb.runLive(context.Background(), d) }},
	} {
		b.Run(eng.name, func(b *testing.B) {
			tb, err := Golden(p, rand.New(rand.NewSource(1)))
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := eng.run(tb)
				if err != nil {
					b.Fatalf("run failed: %v", err)
				}
				if !res.Pass() {
					b.Fatalf("golden RTL failed scenarios %v", res.FailedScenarios())
				}
			}
		})
	}
}
