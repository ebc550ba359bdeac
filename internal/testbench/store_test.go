package testbench

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"correctbench/internal/dataset"
	"correctbench/internal/mutate"
	"correctbench/internal/obs"
	"correctbench/internal/sim"
	"correctbench/internal/verilog"
)

// samePiece reports how two pieces of one key differ: their rows,
// samples (wide values included) and each lane's first error (lane,
// step, phase and text), or "" when they are equal.
func samePiece(a, b *piece) string {
	if a.rows != b.rows || !reflect.DeepEqual(a.samples, b.samples) || !reflect.DeepEqual(a.wide, b.wide) {
		return fmt.Sprintf("rows %d and %d, or their samples, differ", a.rows, b.rows)
	}
	if len(a.fails) != len(b.fails) {
		return fmt.Sprintf("%d and %d lane errors", len(a.fails), len(b.fails))
	}
	for i, f := range a.fails {
		g := b.fails[i]
		if f.lane != g.lane || f.step != g.step || f.phase != g.phase || f.err.Error() != g.err.Error() {
			return fmt.Sprintf("lane error %+v differs from %+v", f, g)
		}
	}
	return ""
}

// setReadable lists the readable masks of a set recording's traces.
func setReadable(rec []*trace) [][]bool {
	var out [][]bool
	for _, tr := range rec {
		out = append(out, tr.readable)
	}
	return out
}

// TestScenarioRecordingIsIndependent pins the trace store's premise:
// every scenario starts from Reset, which equals a fresh instance, so a
// scenario recorded alone equals the same scenario recorded in the
// middle of a testbench, after other scenarios ran on the same
// instance. For every problem, a DUT set of the golden and two mutants
// is recorded over the golden testbench, and each scenario is recorded
// again on its own; the pieces — samples, rows and each lane's first
// error — and the readable masks must be equal, and each DUT's outcome
// over that scenario alone must equal the interpreter's (runLive).
func TestScenarioRecordingIsIndependent(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(26))
	compared, total := 0, 0
	for _, p := range dataset.All() {
		tb, err := Golden(p, rng)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		base, err := p.Elaborate()
		if err != nil {
			t.Fatal(err)
		}
		mod, err := p.Module()
		if err != nil {
			t.Fatal(err)
		}
		duts := []*sim.Design{base}
		for k := 0; k < 6 && len(duts) < 3; k++ {
			mut, muts, _ := mutate.Mutate(mod, rng, 1+k%2)
			if len(muts) == 0 {
				continue
			}
			if d, err := sim.ElaborateSourceContext(ctx, verilog.PrintModule(mut), p.Top); err == nil {
				duts = append(duts, d)
			}
		}
		set := NewDUTSet(base, duts)
		whole := &TraceStore{}
		rec, err := tb.recordSet(ctx, whole, set, newStimulus(tb), set.outs, errDUT, nil, false)
		if err != nil {
			t.Fatal(err)
		}
		readable := setReadable(rec)
		for s, sc := range tb.Scenarios {
			one := &Testbench{Problem: p, Scenarios: []Scenario{sc}, CheckerSource: p.Source, CheckerTop: p.Top, CheckerSticky: -1}
			alone := &TraceStore{}
			rec, err := one.recordSet(ctx, alone, set, newStimulus(one), set.outs, errDUT, nil, false)
			if err != nil {
				t.Fatal(err)
			}
			if got := setReadable(rec); !reflect.DeepEqual(got, readable) {
				t.Errorf("%s scenario %d: readable %v alone, %v in the testbench", p.Name, s, got, readable)
			}
			if len(alone.pieces) == 0 {
				t.Fatalf("%s scenario %d: recording it alone stored nothing", p.Name, s)
			}
			for k, pc := range alone.pieces { //detlint:allow each key is checked on its own
				// A unit whose every lane erred in an earlier scenario
				// records no later one.
				if in := whole.pieces[k]; in != nil {
					compared++
					if diff := samePiece(pc, in); diff != "" {
						t.Errorf("%s scenario %d (%T): alone and mid-stimulus recordings differ: %s", p.Name, s, k.unit, diff)
					}
				}
				total++
			}
			out, err := one.RunBatchContext(ctx, set, false)
			if err != nil {
				t.Fatal(err)
			}
			for i, d := range duts {
				res, err := one.runLive(ctx, d)
				if want := (BatchOutcome{Res: res, Err: err}); !sameOutcome(out[i], want) {
					t.Errorf("%s scenario %d DUT %d: recorded %+v, the interpreter gives %+v", p.Name, s, i, out[i], want)
				}
			}
		}
	}
	if compared < total*9/10 {
		t.Errorf("compared %d of %d scenario recordings; too few units run to the end of their testbench", compared, total)
	}
}

// oscillating returns p's golden source with a combinational loop that
// oscillates while any bit of trigger is set, when osc, or with the
// same wire held at zero otherwise: two designs of one shape, so a
// batch program can hold both as lanes.
func oscillating(p *dataset.Problem, trigger string, osc bool) string {
	cond := "(|" + trigger + ")"
	if !osc {
		cond = "1'b0"
	}
	return strings.Replace(p.Source, "endmodule",
		"wire cb_osc;\nassign cb_osc = "+cond+" ? ~cb_osc : 1'b0;\nendmodule", 1)
}

// firstDataInput names p's first input port that is neither its clock
// nor its reset.
func firstDataInput(t *testing.T, p *dataset.Problem) string {
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
	t.Fatalf("%s has no data input", p.Name)
	return ""
}

// driving is a scenario of n steps that drive the data input trigger
// to tv and every other data input to ov.
func driving(p *dataset.Problem, index, n int, trigger string, tv, ov uint64) Scenario {
	d, _ := p.Elaborate()
	sc := Scenario{Index: index, Name: fmt.Sprintf("drive %d/%d", tv, ov)}
	for k := 0; k < n; k++ {
		in := map[string]uint64{}
		for _, port := range d.Ports {
			if port.Dir == sim.In && port.Name != p.Clock && port.Name != p.Reset {
				in[port.Name] = ov
			}
		}
		in[trigger] = tv
		sc.Steps = append(sc.Steps, Step{Inputs: in})
	}
	return sc
}

// TestTraceStoreLabelsOnRead: a piece stores a lane's error raw, so a
// scenario recorded on the checker side under one Scenario.Index and
// read on the DUT side under another yields an error that names the
// reading side and index. The oscillating checker errs at the first
// step that drives its trigger; the same design is then a DUT of a
// testbench on the same store whose scenarios are renumbered, and its
// side is read, not simulated.
func TestTraceStoreLabelsOnRead(t *testing.T) {
	ctx := context.Background()
	for _, name := range []string{"mux2_w4", "det101"} {
		p := dataset.ByName(name)
		trigger := firstDataInput(t, p)
		quiet, loud := driving(p, 1, 2, trigger, 0, 0), driving(p, 2, 3, trigger, 1, 0)
		chk := &Testbench{Problem: p, Scenarios: []Scenario{quiet, loud}, CheckerSource: oscillating(p, trigger, true), CheckerTop: p.Top, CheckerSticky: -1}
		base, err := p.Elaborate()
		if err != nil {
			t.Fatal(err)
		}
		_, err = chk.RunAgainstDesignContext(ctx, base)
		if want := "checker: scenario 2 step 0: "; err == nil || !strings.HasPrefix(err.Error(), want) {
			t.Fatalf("%s: checker-side run: %v, want an error starting %q", name, err, want)
		}
		cd, err := chk.checkerDesignContext(ctx)
		if err != nil {
			t.Fatal(err)
		}

		// The same scenarios, reordered and renumbered; the checker is
		// the golden and the oscillating design is the DUT.
		loud.Index, quiet.Index = 7, 8
		dut := &Testbench{Problem: p, Scenarios: []Scenario{loud, quiet}, CheckerSource: p.Source, CheckerTop: p.Top, CheckerSticky: -1}
		dut.UseTraceStore(chk.traceStore())
		before := storedPieces(chk.traceStore())[cd]
		col := obs.NewCollector(time.Time{})
		_, err = dut.RunAgainstDesignContext(obs.WithCollector(ctx, col), cd)
		if want := "dut: scenario 7 step 0: "; err == nil || !strings.HasPrefix(err.Error(), want) {
			t.Errorf("%s: DUT-side read: %v, want an error starting %q", name, err, want)
		}
		// The golden checker is recorded (one sim_run); the DUT side is
		// read from the checker's pieces.
		if n := phaseCounts(col)[obs.PhaseRun]; n != 1 {
			t.Errorf("%s: DUT-side run opened %d %s spans, want 1 (the golden checker)", name, n, obs.PhaseRun)
		}
		if after := storedPieces(chk.traceStore())[cd]; after != before {
			t.Errorf("%s: the DUT-side run stored %d more pieces of the oscillating design", name, after-before)
		}
	}
}

// TestTraceStoreEarlyExitStoresNothing: an early-exit run — AutoEval's
// mode — reads the store but stores nothing of its DUT side; its
// checker, recorded whole, is stored. A later full run on the same
// store records the DUTs.
func TestTraceStoreEarlyExitStoresNothing(t *testing.T) {
	tb := golden(t, "cnt8")
	base, err := tb.Problem.Elaborate()
	if err != nil {
		t.Fatal(err)
	}
	set := NewDUTSet(base, batchDiffDUTs(t, tb, base))
	if _, err := tb.RunBatchContext(context.Background(), set, true); err != nil {
		t.Fatal(err)
	}
	cd, err := tb.checkerDesignContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	pieces := storedPieces(tb.traceStore())
	if pieces[cd] == 0 || len(pieces) != 1 {
		t.Errorf("early-exit run stored pieces of %d units (%d of the checker), want the checker's only", len(pieces), pieces[cd])
	}
	if _, err := tb.RunBatchContext(context.Background(), set, false); err != nil {
		t.Fatal(err)
	}
	if n := len(storedPieces(tb.traceStore())); n < 2 {
		t.Errorf("a full run after it stored pieces of %d units, want the DUTs' too", n)
	}
}

// TestTraceStoreEndedLaneStillStored: a full run simulates a scenario
// on every lane of a program, a lane the run has already ended
// included, so the stored piece is complete. One lane of a two-lane
// program errs in the first scenario; the second scenario, which
// drives the other inputs to all ones, must be stored as a fresh store
// records it, and a testbench that reaches it with that lane running
// reads it — simulating nothing — to the outcomes of a fresh store.
func TestTraceStoreEndedLaneStillStored(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct{ name, trigger string }{{"mux2_w4", "a"}, {"fifo2", "push"}} {
		p := dataset.ByName(tc.name)
		var designs []*sim.Design
		for _, osc := range []bool{false, true} {
			d, err := sim.ElaborateSourceContext(ctx, oscillating(p, tc.trigger, osc), p.Top)
			if err != nil {
				t.Fatal(err)
			}
			designs = append(designs, d)
		}
		set := NewDUTSet(designs[0], designs)
		if len(set.progs) != 1 || set.progs[0].Lanes() != 2 {
			t.Fatalf("%s: the two designs do not share one program", tc.name)
		}
		loud, quiet := driving(p, 1, 2, tc.trigger, 1, 0), driving(p, 2, 3, tc.trigger, 0, ^uint64(0))
		tb := &Testbench{Problem: p, Scenarios: []Scenario{loud, quiet}, CheckerSource: p.Source, CheckerTop: p.Top, CheckerSticky: -1}
		out, err := tb.RunBatchContext(ctx, set, false)
		if err != nil {
			t.Fatal(err)
		}
		if out[0].Err != nil || out[1].Err == nil || !strings.HasPrefix(out[1].Err.Error(), "dut: scenario 1 ") {
			t.Fatalf("%s: first run outcomes %+v, %+v; want the oscillating lane to err in scenario 1", tc.name, out[0], out[1])
		}

		quiet.Index = 1
		fresh := func() *Testbench {
			return &Testbench{Problem: p, Scenarios: []Scenario{quiet}, CheckerSource: p.Source, CheckerTop: p.Top, CheckerSticky: -1}
		}
		alone := fresh()
		want, err := alone.RunBatchContext(ctx, set, false)
		if err != nil {
			t.Fatal(err)
		}
		if want[1].Err != nil {
			t.Fatalf("%s: the oscillating lane errs in the quiet scenario: %v", tc.name, want[1].Err)
		}
		stim := newStimulus(alone)
		key := pieceKey{unit: set.progs[0], kind: stim.kind, clock: stim.clock, reset: stim.reset,
			outs: strings.Join(set.outs[0], "\x00"), drives: stim.drives[0]}
		stored, own := tb.traceStore().piece(key), alone.traceStore().piece(key)
		if stored == nil || own == nil {
			t.Fatalf("%s: the quiet scenario's piece is missing (first run %v, fresh store %v)", tc.name, stored != nil, own != nil)
		}
		if diff := samePiece(stored, own); diff != "" {
			t.Errorf("%s: the piece stored after a lane ended differs from a fresh recording: %s", tc.name, diff)
		}

		again := fresh()
		again.UseTraceStore(tb.traceStore())
		col := obs.NewCollector(time.Time{})
		got, err := again.RunBatchContext(obs.WithCollector(ctx, col), set, false)
		if err != nil {
			t.Fatal(err)
		}
		if n := phaseCounts(col)[obs.PhaseRun]; n != 0 {
			t.Errorf("%s: the quiet scenario alone opened %d %s spans, want none", tc.name, n, obs.PhaseRun)
		}
		if i := sameOutcomes(got, want); i >= 0 {
			t.Errorf("%s: DUT %d read %+v, a fresh store gives %+v", tc.name, i, got[i], want[i])
		}
	}
}

// TestTraceStoreConcurrentRuns: goroutines share one cold store through
// testbenches that differ in checker and scenario order, mixing full
// and early-exit runs of one DUT set; each must see the outcomes its
// testbench gets on a store of its own (run it under -race).
func TestTraceStoreConcurrentRuns(t *testing.T) {
	tb := golden(t, "det101")
	p := tb.Problem
	base, err := p.Elaborate()
	if err != nil {
		t.Fatal(err)
	}
	set := NewDUTSet(base, batchDiffDUTs(t, tb, base))
	mod, err := p.Module()
	if err != nil {
		t.Fatal(err)
	}
	mut, _, _ := mutate.Mutate(mod, rand.New(rand.NewSource(4)), 1)
	reversed := make([]Scenario, len(tb.Scenarios))
	for i, sc := range tb.Scenarios {
		reversed[len(reversed)-1-i] = sc
	}
	var tbs []*Testbench
	for _, src := range []string{p.Source, verilog.PrintModule(mut)} {
		for _, scs := range [][]Scenario{tb.Scenarios, reversed} {
			tbs = append(tbs, &Testbench{Problem: p, Scenarios: scs, CheckerSource: src, CheckerTop: p.Top, CheckerSticky: -1})
		}
	}
	want := make([][2][]BatchOutcome, len(tbs))
	for i, x := range tbs {
		own := &Testbench{Problem: p, Scenarios: x.Scenarios, CheckerSource: x.CheckerSource, CheckerTop: p.Top, CheckerSticky: -1}
		for e, early := range []bool{false, true} {
			if want[i][e], err = own.RunBatchContext(context.Background(), set, early); err != nil {
				t.Fatal(err)
			}
		}
	}
	shared := &TraceStore{}
	for _, x := range tbs {
		x.UseTraceStore(shared)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 4; r++ {
				i, e := (g+r)%len(tbs), (g/2+r)%2
				out, err := tbs[i].RunBatchContext(context.Background(), set, e == 1)
				if err != nil {
					t.Error(err)
					return
				}
				if d := sameOutcomes(out, want[i][e]); d >= 0 {
					t.Errorf("goroutine %d round %d: testbench %d DUT %d outcome %+v, want %+v", g, r, i, d, out[d], want[i][e][d])
				}
			}
		}()
	}
	wg.Wait()
}
