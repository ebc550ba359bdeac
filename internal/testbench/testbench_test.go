package testbench

import (
	"context"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"correctbench/internal/dataset"
	"correctbench/internal/mutate"
	"correctbench/internal/sim"
	"correctbench/internal/verilog"
)

func golden(t *testing.T, name string) *Testbench {
	t.Helper()
	p := dataset.ByName(name)
	if p == nil {
		t.Fatalf("problem %s not found", name)
	}
	tb, err := Golden(p, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

func TestGoldenTBPassesGoldenRTL(t *testing.T) {
	for _, name := range []string{"mux2_w4", "adder8", "cnt8", "det101", "shift18", "fifo2", "sevenseg", "prio_enc8"} {
		tb := golden(t, name)
		res, err := tb.RunAgainstSourceContext(context.Background(), tb.Problem.Source, tb.Problem.Top)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Pass() {
			t.Errorf("%s: golden TB fails golden RTL; failing scenarios %v", name, res.FailedScenarios())
		}
	}
}

func TestAllGoldenTBsPassGoldenRTL(t *testing.T) {
	if testing.Short() {
		t.Skip("full dataset sweep")
	}
	rng := rand.New(rand.NewSource(11))
	for _, p := range dataset.All() {
		tb, err := Golden(p, rng)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		res, err := tb.RunAgainstSourceContext(context.Background(), p.Source, p.Top)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if !res.Pass() {
			t.Errorf("%s: golden TB rejects golden RTL (scenarios %v)", p.Name, res.FailedScenarios())
		}
	}
}

func TestMutantFailsGoldenTB(t *testing.T) {
	tb := golden(t, "adder8")
	mod, err := tb.Problem.Module()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	killed := 0
	for i := 0; i < 10; i++ {
		mut, muts, _ := mutate.Mutate(mod, rng, 1)
		if len(muts) == 0 {
			t.Fatal("no mutation applied")
		}
		res, err := tb.RunAgainstSourceContext(context.Background(), verilog.PrintModule(mut), tb.Problem.Top)
		if err != nil {
			continue // mutants that break simulation count as caught
		}
		if !res.Pass() {
			killed++
		}
	}
	if killed < 6 {
		t.Errorf("golden TB killed only %d/10 adder mutants", killed)
	}
}

func TestFaultyCheckerFailsGoldenRTL(t *testing.T) {
	tb := golden(t, "cnt8")
	mod, err := tb.Problem.Module()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	faulty, muts, plan := mutate.Mutate(mod, rng, 1)
	if len(muts) == 0 {
		t.Fatal("no checker fault injected")
	}
	tb.CheckerSource = verilog.PrintModule(faulty)
	tb.CheckerPlan = plan
	res, err := tb.RunAgainstSourceContext(context.Background(), tb.Problem.Source, tb.Problem.Top)
	if err != nil {
		t.Fatal(err)
	}
	if res.Pass() {
		t.Errorf("golden RTL passed against faulty checker (%v) — fault is behaviourally equivalent?", muts)
	}
}

func TestExhaustiveCoverageForSmallCMB(t *testing.T) {
	p := dataset.ByName("fulladd") // 3 input bits
	scs, err := GenerateScenarios(p, rand.New(rand.NewSource(2)), Coverage{Scenarios: 4, Steps: 4, Exhaustive: true})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	seen := map[uint64]bool{}
	for _, sc := range scs {
		for _, st := range sc.Steps {
			total++
			key := st.Inputs["a"]<<2 | st.Inputs["b"]<<1 | st.Inputs["cin"]
			seen[key] = true
		}
	}
	if total != 8 || len(seen) != 8 {
		t.Errorf("exhaustive enumeration wrong: %d steps, %d distinct", total, len(seen))
	}
}

func TestScenarioIndexesAreOneBased(t *testing.T) {
	tb := golden(t, "alu8")
	for i, sc := range tb.Scenarios {
		if sc.Index != i+1 {
			t.Fatalf("scenario %d has index %d", i, sc.Index)
		}
	}
	if tb.ScenarioCount() < 2 {
		t.Error("too few scenarios")
	}
}

func TestResetlessSEQFlushedByLoad(t *testing.T) {
	p := dataset.ByName("shift18") // reset-less, load-based
	scs, err := GenerateScenarios(p, rand.New(rand.NewSource(3)), Coverage{Scenarios: 4, Steps: 6})
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range scs {
		if v := sc.Steps[0].Inputs["load"]; v != 1 {
			t.Errorf("scenario %q step 0 load = %d, want 1", sc.Name, v)
		}
	}
}

func TestDriverEmissionParsesAndRuns(t *testing.T) {
	for _, name := range []string{"mux2_w4", "cnt4"} {
		tb := golden(t, name)
		driver := tb.Driver()
		if driver == "" {
			t.Fatalf("%s: empty driver", name)
		}
		f, err := verilog.Parse(driver + "\n" + tb.Problem.Source)
		if err != nil {
			t.Fatalf("%s: driver does not parse: %v\n%s", name, err, driver)
		}
		d, err := sim.ElaborateContext(context.Background(), f, tb.Problem.Name+"_tb")
		if err != nil {
			t.Fatalf("%s: driver does not elaborate: %v", name, err)
		}
		in := sim.NewInstance(d)
		var out strings.Builder
		in.Stdout = &out
		if err := sim.Run(in, 1000000); err != nil {
			t.Fatalf("%s: driver run: %v", name, err)
		}
		if !strings.Contains(out.String(), "scenario: 1") {
			t.Errorf("%s: driver output missing scenario display:\n%.300s", name, out.String())
		}
	}
}

func TestSyntaxOK(t *testing.T) {
	tb := golden(t, "mux2_w4")
	if !tb.SyntaxOK() {
		t.Fatal("golden TB reports syntax error")
	}
	driver := tb.Driver()
	tb.DriverSource = driver[:len(driver)/2]
	if tb.SyntaxOK() {
		t.Error("truncated driver reported as OK")
	}
}

// TestSyntaxOKUnelaboratedProblem: a testbench without an explicit
// driver passes the driver track exactly when the driver it renders
// parses, also for a problem whose source does not elaborate, where
// EmitDriver returns only a comment.
func TestSyntaxOKUnelaboratedProblem(t *testing.T) {
	tb := golden(t, "mux2_w4")
	tb.Problem = &dataset.Problem{
		Name:   "bad",
		Kind:   dataset.CMB,
		Source: "module bad(input a, output y);\n  nosuch u(.a(a), .y(y));\nendmodule\n",
		Top:    "bad",
	}
	if _, err := tb.Problem.Elaborate(); err == nil {
		t.Fatal("the hand-built problem elaborates")
	}
	_, err := verilog.Parse(tb.Driver())
	if got, want := tb.SyntaxOK(), err == nil; got != want {
		t.Errorf("SyntaxOK = %v, but the rendered driver's parse error is %v", got, err)
	}
}

// TestSyntaxOKMemo pins the per-track Eval0 memo: a testbench without
// an explicit driver passes the driver track with nothing emitted or
// parsed, a freshly emitted driver is already judged, an in-place edit
// of either track is re-judged in both directions, a WithChecker copy
// keeps the driver verdict but judges its own checker, an unchanged
// testbench is not parsed again (no allocations), and concurrent
// callers on one shared testbench agree.
func TestSyntaxOKMemo(t *testing.T) {
	tb := golden(t, "cnt8")
	if tb.DriverSource != "" || !tb.SyntaxOK() || tb.driverSyntax.Load() != nil {
		t.Fatalf("golden testbench: DriverSource %d bytes, driver memo %+v; want an empty driver passing Eval0 with no memo",
			len(tb.DriverSource), tb.driverSyntax.Load())
	}
	if allocs := testing.AllocsPerRun(100, func() { tb.SyntaxOK() }); allocs != 0 {
		t.Errorf("SyntaxOK without an explicit driver allocates %.1f times per call, want 0 (emitted or parsed)", allocs)
	}
	driver, checker := tb.Driver(), tb.CheckerSource
	if v := tb.driverSyntax.Load(); v == nil || v.src != driver || !v.ok {
		t.Fatalf("freshly emitted driver's memo = %+v, want (Driver(), true)", v)
	}
	broken := func(src string) string { return src[:len(src)/2] }
	for _, tc := range []struct {
		track, good string
		edit        func(string)
	}{
		{"driver", driver, func(s string) { tb.DriverSource = s }},
		{"checker", checker, func(s string) { tb.CheckerSource = s }},
	} {
		for i, want := range []bool{true, false, true, false} {
			src := tc.good
			if !want {
				src = broken(tc.good)
			}
			tc.edit(src)
			if got := tb.SyntaxOK(); got != want {
				t.Fatalf("%s edit %d: SyntaxOK = %v, want %v", tc.track, i, got, want)
			}
		}
		tc.edit(tc.good)
	}

	if !tb.SyntaxOK() {
		t.Fatal("restored testbench reports a syntax error")
	}
	fixed := tb.WithChecker(broken(checker), tb.CheckerPlan, tb.CheckerSticky)
	if v := fixed.driverSyntax.Load(); v == nil || v != tb.driverSyntax.Load() {
		t.Errorf("WithChecker copy did not keep the driver verdict: %+v", v)
	}
	if fixed.SyntaxOK() {
		t.Error("WithChecker copy with a broken checker reported as OK")
	}
	fixed = tb.WithChecker(checker, tb.CheckerPlan, tb.CheckerSticky)
	if !fixed.SyntaxOK() {
		t.Error("WithChecker copy with the original checker reported a syntax error")
	}
	badDriver := tb.WithChecker(checker, tb.CheckerPlan, tb.CheckerSticky)
	badDriver.DriverSource = broken(driver)
	if badDriver.SyntaxOK() {
		t.Error("WithChecker copy with an edited broken driver reported as OK")
	}

	if allocs := testing.AllocsPerRun(100, func() { tb.SyntaxOK() }); allocs != 0 {
		t.Errorf("SyntaxOK on an unchanged testbench allocates %.1f times per call, want 0 (re-parsed)", allocs)
	}

	// A cold memo on a shared testbench: the goroutines race to parse.
	shared := golden(t, "det101")
	shared.CheckerSource = broken(shared.CheckerSource)
	var wg sync.WaitGroup
	okCalls := make([]int, 8)
	for g := range okCalls {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 20; k++ {
				if shared.SyntaxOK() {
					okCalls[g]++
				}
			}
		}()
	}
	wg.Wait()
	for g, n := range okCalls {
		if n != 0 {
			t.Errorf("goroutine %d: SyntaxOK = true on a broken checker in %d of 20 calls", g, n)
		}
	}
}
