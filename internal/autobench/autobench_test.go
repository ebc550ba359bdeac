package autobench

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"correctbench/internal/dataset"
	"correctbench/internal/llm"
	"correctbench/internal/mutate"
	"correctbench/internal/testbench"
)

func trait() llm.TaskTrait { return llm.TaskTrait{StickySeed: 12345} }

func TestBaselineProducesThinnerTestbenches(t *testing.T) {
	p := dataset.ByName("alu8")
	prof := llm.GPT4o()
	rng := rand.New(rand.NewSource(1))
	var acct llm.Accountant
	base, err := (&Baseline{Profile: prof}).Generate(p, trait(), rng, &acct)
	if err != nil {
		t.Fatal(err)
	}
	full, err := (&AutoBench{Profile: prof}).Generate(p, trait(), rng, &acct)
	if err != nil {
		t.Fatal(err)
	}
	if base.ScenarioCount() >= full.ScenarioCount() {
		t.Errorf("baseline scenarios %d >= autobench %d", base.ScenarioCount(), full.ScenarioCount())
	}
}

func TestGeneratedTestbenchHasDriverAndChecker(t *testing.T) {
	p := dataset.ByName("cnt8")
	rng := rand.New(rand.NewSource(2))
	var acct llm.Accountant
	tb, err := (&AutoBench{Profile: llm.GPT4o()}).Generate(p, trait(), rng, &acct)
	if err != nil {
		t.Fatal(err)
	}
	if tb.Driver() == "" || tb.CheckerSource == "" {
		t.Fatal("missing track source")
	}
	if acct.Calls == 0 || tb.TokensIn == 0 {
		t.Error("no tokens charged")
	}
}

func TestCleanCheckerPassesGolden(t *testing.T) {
	p := dataset.ByName("adder8")
	prof := llm.GPT4o()
	rng := rand.New(rand.NewSource(3))
	var acct llm.Accountant
	foundClean := false
	for i := 0; i < 20 && !foundClean; i++ {
		tb, err := (&AutoBench{Profile: prof}).Generate(p, trait(), rng, &acct)
		if err != nil {
			t.Fatal(err)
		}
		if len(tb.CheckerPlan.Sites) != 0 || !tb.SyntaxOK() {
			continue
		}
		foundClean = true
		res, err := tb.RunAgainstSourceContext(context.Background(), p.Source, p.Top)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Pass() {
			t.Error("clean checker rejects golden RTL")
		}
	}
	if !foundClean {
		t.Fatal("no clean generation in 20 tries (clean prob miscalibrated?)")
	}
}

func TestFaultyCheckerIsObservable(t *testing.T) {
	p := dataset.ByName("cnt8")
	prof := llm.GPT4o()
	rng := rand.New(rand.NewSource(4))
	var acct llm.Accountant
	faulty := 0
	for i := 0; i < 40 && faulty < 5; i++ {
		tb, err := (&AutoBench{Profile: prof}).Generate(p, trait(), rng, &acct)
		if err != nil {
			t.Fatal(err)
		}
		if len(tb.CheckerPlan.Sites) == 0 || !tb.SyntaxOK() {
			continue
		}
		faulty++
		res, err := tb.RunAgainstSourceContext(context.Background(), p.Source, p.Top)
		if err != nil {
			continue // checker that breaks simulation is observable too
		}
		if res.Pass() {
			t.Errorf("faulty checker (%v) passes golden RTL — not observable", tb.CheckerPlan.Sites)
		}
	}
	if faulty == 0 {
		t.Fatal("no faulty generation in 40 tries")
	}
}

func TestMisunderstoodTaskFaultIsSticky(t *testing.T) {
	p := dataset.ByName("det1101")
	prof := llm.GPT4o()
	tr := llm.TaskTrait{Misunderstood: true, StickySeed: 777}
	rng := rand.New(rand.NewSource(5))
	var acct llm.Accountant
	var sites []int
	for i := 0; i < 6; i++ {
		tb, err := (&AutoBench{Profile: prof}).Generate(p, tr, rng, &acct)
		if err != nil {
			t.Fatal(err)
		}
		if tb.CheckerSticky < 0 {
			t.Fatal("misunderstood generation lacks sticky site")
		}
		sites = append(sites, tb.CheckerSticky)
	}
	for _, s := range sites[1:] {
		if s != sites[0] {
			t.Fatalf("sticky site varies across regenerations: %v", sites)
		}
	}
}

// TestStickySiteMemoPerGenerator: a generator's second misunderstood
// Generate reuses the sticky site its first one chose, without
// choosing again (a site planted in the memo is used as it is), while
// a new generator chooses afresh and gets the same site. Concurrent
// Generate calls on one generator share the memo.
func TestStickySiteMemoPerGenerator(t *testing.T) {
	p := dataset.ByName("det1101")
	prof := *llm.GPT4o()
	prof.MisCleanProb = 0 // every generation is misunderstood
	tr := llm.TaskTrait{Misunderstood: true, StickySeed: 777}
	gen := &AutoBench{Profile: &prof}
	generate := func(g Generator, seed int64) int {
		t.Helper()
		var acct llm.Accountant
		tb, err := g.Generate(p, tr, rand.New(rand.NewSource(seed)), &acct)
		if err != nil {
			t.Fatal(err)
		}
		return tb.CheckerSticky
	}
	site := generate(gen, 1)
	if site < 0 {
		t.Fatal("misunderstood generation lacks a sticky site")
	}
	key := stickyKey{p, tr.StickySeed}
	if v, ok := gen.stickies.m.Load(key); !ok || v.(int) != site {
		t.Fatalf("memo holds %v, %v after the first generation; want site %d", v, ok, site)
	}
	golden, err := p.Module()
	if err != nil {
		t.Fatal(err)
	}
	_, _, n := mutate.Plan{EnumSeed: tr.StickySeed}.Build(golden)
	planted := (site + 1) % n
	gen.stickies.m.Store(key, planted)
	if got := generate(gen, 2); got != planted {
		t.Fatalf("second generation's sticky site = %d, want the memo's %d (chosen again?)", got, planted)
	}
	if got := generate(&AutoBench{Profile: &prof}, 3); got != site {
		t.Fatalf("a new generator chose site %d, want %d", got, site)
	}

	shared := &Baseline{Profile: &prof}
	sites := make([]int, 4)
	var wg sync.WaitGroup
	for g := range sites {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var acct llm.Accountant
			tb, err := shared.Generate(p, tr, rand.New(rand.NewSource(int64(10+g))), &acct)
			if err != nil {
				t.Error(err)
				return
			}
			sites[g] = tb.CheckerSticky
		}()
	}
	wg.Wait()
	for g, s := range sites {
		if s != site {
			t.Errorf("concurrent generation %d: sticky site %d, want %d", g, s, site)
		}
	}
}

func TestWeakCoverageTrait(t *testing.T) {
	p := dataset.ByName("cnt8")
	prof := llm.GPT4o()
	rng := rand.New(rand.NewSource(6))
	var acct llm.Accountant
	weak, err := (&AutoBench{Profile: prof}).Generate(p, llm.TaskTrait{WeakCoverage: true, StickySeed: 1}, rng, &acct)
	if err != nil {
		t.Fatal(err)
	}
	strong, err := (&AutoBench{Profile: prof}).Generate(p, llm.TaskTrait{StickySeed: 1}, rng, &acct)
	if err != nil {
		t.Fatal(err)
	}
	weakSteps, strongSteps := totalSteps(weak), totalSteps(strong)
	if weakSteps*3 > strongSteps {
		t.Errorf("weak coverage not thin enough: %d vs %d steps", weakSteps, strongSteps)
	}
}

func totalSteps(tb *testbench.Testbench) int {
	n := 0
	for _, sc := range tb.Scenarios {
		n += len(sc.Steps)
	}
	return n
}

func TestSyntaxErrorRateRoughlyCalibrated(t *testing.T) {
	p := dataset.ByName("mux2_w4") // CMB, baseline syntax prob 0.20
	prof := llm.GPT4o()
	rng := rand.New(rand.NewSource(7))
	var acct llm.Accountant
	bad := 0
	const n = 200
	for i := 0; i < n; i++ {
		tb, err := (&Baseline{Profile: prof}).Generate(p, trait(), rng, &acct)
		if err != nil {
			t.Fatal(err)
		}
		if !tb.SyntaxOK() {
			bad++
		}
	}
	rate := float64(bad) / n
	if rate < 0.10 || rate > 0.32 {
		t.Errorf("baseline CMB syntax error rate %.2f, want near %.2f", rate, prof.BaselineSyntaxCMB)
	}
}

func TestForMethod(t *testing.T) {
	prof := llm.GPT4o()
	for _, name := range []string{"Baseline", "AutoBench"} {
		g, err := ForMethod(name, prof)
		if err != nil || g.Name() != name {
			t.Errorf("ForMethod(%q) = %v, %v", name, g, err)
		}
	}
	if _, err := ForMethod("Nope", prof); err == nil {
		t.Error("unknown method accepted")
	}
}
