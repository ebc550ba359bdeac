package testbench

import (
	"context"
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
	"correctbench/internal/vstatic"
)

// TestCheckerMemoServesEveryConsumer pins the one parse per checker
// text: a broken driver leaves the checker unparsed, and Eval0,
// elaboration, the recorded traces and the lint accessor all read the
// memo SyntaxOK made, and none of them replaces it. A second run reads
// the store's recording: it elaborates and simulates nothing.
func TestCheckerMemoServesEveryConsumer(t *testing.T) {
	tb := golden(t, "cnt8")
	if tb.checker.Load() != nil {
		t.Fatal("a fresh golden testbench already holds a checker memo")
	}
	driver := tb.Driver()
	tb.DriverSource = driver[:len(driver)/2]
	if tb.SyntaxOK() || tb.checker.Load() != nil {
		t.Fatal("a testbench with a broken driver passed Eval0 or parsed its checker")
	}
	tb.DriverSource = ""
	if !tb.SyntaxOK() {
		t.Fatal("golden testbench reports a syntax error")
	}
	m := tb.checker.Load()
	if m == nil || m.file == nil || m.parseErr != nil {
		t.Fatalf("SyntaxOK left memo %+v, want the checker's parse", m)
	}
	same := func(step string) {
		t.Helper()
		if got := tb.checker.Load(); got != m {
			t.Fatalf("after %s the testbench holds another memo", step)
		}
	}
	cd, err := tb.checkerDesignContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	same("elaboration")
	if m.design != cd {
		t.Error("the elaborated design is not the memo's")
	}
	base, err := tb.Problem.Elaborate()
	if err != nil {
		t.Fatal(err)
	}
	res, err := tb.RunAgainstDesignContext(context.Background(), base)
	if err != nil || !res.Pass() {
		t.Fatalf("golden run: %v, %v", res, err)
	}
	same("a run")
	if n := storedPieces(tb.traceStore())[cd]; n == 0 {
		t.Error("the run stored no checker piece")
	}
	col := obs.NewCollector(time.Time{})
	if res, err := tb.RunAgainstDesignContext(obs.WithCollector(context.Background(), col), base); err != nil || !res.Pass() {
		t.Fatalf("second golden run: %v, %v", res, err)
	}
	if n := phaseCounts(col); n[obs.PhaseElaborate] != 0 || n[obs.PhaseRun] != 0 {
		t.Errorf("second run spans %v, want no %s and no %s", n, obs.PhaseElaborate, obs.PhaseRun)
	}
	same("a second run")
	if d, _ := tb.checkerDesignContext(context.Background()); d != cd {
		t.Error("a second elaboration built a new design")
	}
	f, err := tb.CheckerFile()
	if err != nil || f != m.file {
		t.Errorf("CheckerFile = %p, %v; want the memo's parse %p", f, err, m.file)
	}
	same("the lint accessor")
}

// TestCheckerMemoFollowsEdits: an in-place edit of CheckerSource or of
// CheckerTop moves to another memo, which parses, elaborates and
// records again, and each consumer reads the edited checker; an edit
// back to the first text finds the first memo in the store.
func TestCheckerMemoFollowsEdits(t *testing.T) {
	tb := golden(t, "det101")
	base, err := tb.Problem.Elaborate()
	if err != nil {
		t.Fatal(err)
	}
	run := func() BatchOutcome {
		t.Helper()
		out, err := tb.RunBatchContext(context.Background(), NewDUTSet(base, []*sim.Design{base}), false)
		if err != nil {
			t.Fatal(err)
		}
		return out[0]
	}
	if o := run(); o.Err != nil || !o.Res.Pass() {
		t.Fatalf("golden run: %+v", o)
	}
	first := tb.checker.Load()

	// A text edit that still parses: a new memo, design and trace.
	tb.CheckerSource += "\n// edited\n"
	if !tb.SyntaxOK() {
		t.Fatal("commented checker reports a syntax error")
	}
	second := tb.checker.Load()
	if second == first || second.src != tb.CheckerSource {
		t.Fatal("an edit of CheckerSource kept the old memo")
	}
	if o := run(); o.Err != nil || !o.Res.Pass() {
		t.Fatalf("edited checker run: %+v", o)
	}
	if pieces := storedPieces(tb.traceStore()); second.design == nil || second.design == first.design || pieces[second.design] == 0 {
		t.Error("the edited checker was not elaborated and recorded again")
	}
	text := tb.CheckerSource
	tb.CheckerSource = first.src
	if tb.loadChecker() != first {
		t.Error("an edit back to the first text did not find the first memo")
	}
	tb.CheckerSource = text

	// An edit of CheckerTop alone: a new memo whose elaboration fails
	// as it did before the memo, and whose lint finds no module.
	tb.CheckerTop = "no_such_top"
	o := run()
	third := tb.checker.Load()
	if third == second || third.top != "no_such_top" {
		t.Fatal("an edit of CheckerTop kept the old memo")
	}
	want := `checker: 1:1: top module "no_such_top" not found`
	if o.Err == nil || o.Err.Error() != want {
		t.Errorf("run with a missing top: %v, want %q", o.Err, want)
	}
	if f, err := tb.CheckerFile(); err != nil || f != third.file {
		t.Errorf("CheckerFile = %p, %v; want the new memo's parse", f, err)
	} else if _, err := vstatic.AnalyzeFile(f, tb.CheckerTop); err == nil {
		t.Error("lint of a missing top succeeded")
	}

	// A text that does not parse: the parse error is every consumer's.
	tb.CheckerTop = tb.Problem.Top
	tb.CheckerSource = tb.CheckerSource[:len(tb.CheckerSource)/2]
	_, perr := verilog.Parse(tb.CheckerSource)
	if perr == nil {
		t.Fatal("the truncated checker parses")
	}
	if tb.SyntaxOK() {
		t.Error("SyntaxOK accepted a truncated checker")
	}
	if o := run(); o.Err == nil || o.Err.Error() != "checker: "+perr.Error() {
		t.Errorf("run with a truncated checker: %v, want %q", o.Err, "checker: "+perr.Error())
	}
	if _, err := tb.CheckerFile(); err == nil || err.Error() != perr.Error() {
		t.Errorf("CheckerFile error = %v, want %v", err, perr)
	}
}

// TestCheckerMemoConcurrentColdUse: eight goroutines share one fresh
// testbench with no warm-up, each running Eval0, a golden-set and a
// mutant-set run and the lint on the memo's parse. Every goroutine must
// see the sequential outcomes (run it under -race). The checkers are a
// golden one and a mutated one.
func TestCheckerMemoConcurrentColdUse(t *testing.T) {
	for _, tc := range []struct {
		name string
		seed int64 // mutates the checker when non-zero
	}{{"cnt8", 0}, {"prio_enc8", 3}, {"det101", 9}} {
		name := tc.name
		fresh := func() *Testbench {
			tb := golden(t, name)
			if tc.seed != 0 {
				mod, err := tb.Problem.Module()
				if err != nil {
					t.Fatal(err)
				}
				mut, _, _ := mutate.Mutate(mod, rand.New(rand.NewSource(tc.seed)), 2)
				tb.CheckerSource = verilog.PrintModule(mut)
			}
			return tb
		}
		seqTB := fresh()
		base, err := seqTB.Problem.Elaborate()
		if err != nil {
			t.Fatal(err)
		}
		goldSet := NewDUTSet(base, []*sim.Design{base})
		mutSet := NewDUTSet(base, batchDiffDUTs(t, seqTB, base))
		type result struct {
			ok        bool
			gold, mut []BatchOutcome
			lint      []vstatic.Diagnostic
		}
		use := func(tb *Testbench) (r result) {
			r.ok = tb.SyntaxOK()
			var err error
			if r.gold, err = tb.RunBatchContext(context.Background(), goldSet, false); err != nil {
				t.Error(err)
			}
			if r.mut, err = tb.RunBatchContext(context.Background(), mutSet, true); err != nil {
				t.Error(err)
			}
			f, err := tb.CheckerFile()
			if err != nil {
				t.Error(err)
				return r
			}
			rs, err := vstatic.AnalyzeFile(f, tb.CheckerTop)
			if err != nil {
				t.Error(err)
				return r
			}
			r.lint = rs[0].Diags
			return r
		}
		want := use(seqTB)

		shared := fresh()
		got := make([]result, 8)
		var wg sync.WaitGroup
		for g := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[g] = use(shared)
			}()
		}
		wg.Wait()
		for g, r := range got {
			if r.ok != want.ok || !reflect.DeepEqual(r.lint, want.lint) {
				t.Errorf("%s goroutine %d: SyntaxOK %v, lint %v; want %v, %v", name, g, r.ok, r.lint, want.ok, want.lint)
			}
			for i, o := range r.gold {
				if !sameOutcome(o, want.gold[i]) {
					t.Errorf("%s goroutine %d: golden outcome %+v, want %+v", name, g, o, want.gold[i])
				}
			}
			for i, o := range r.mut {
				if !sameOutcome(o, want.mut[i]) {
					t.Errorf("%s goroutine %d: mutant %d outcome %+v, want %+v", name, g, i, o, want.mut[i])
				}
			}
		}
		// The checker's pieces: one per distinct scenario and port list
		// (the base's and the extra-port DUT's), however many goroutines
		// recorded them.
		m, w := shared.checker.Load(), seqTB.checker.Load()
		if m == nil || m.design == nil {
			t.Fatalf("%s: the shared testbench's memo holds no design", name)
		}
		if got, want := storedPieces(shared.traceStore())[m.design], storedPieces(seqTB.traceStore())[w.design]; got != want {
			t.Errorf("%s: the shared store holds %d checker pieces, want %d", name, got, want)
		}
	}
}

// TestCheckerMemoParseIsReadOnly: the elaborated design shares leaf
// nodes with the memo's parse, and the lint reads the parse, so for
// every golden checker and a set of mutant checkers the parse must
// print the same after elaboration, lint and a run.
func TestCheckerMemoParseIsReadOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i, p := range dataset.All() {
		tb, err := Golden(p, rng)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		base, err := p.Elaborate()
		if err != nil {
			t.Fatal(err)
		}
		checkers := []string{p.Source}
		if i%4 == 0 {
			mod, err := p.Module()
			if err != nil {
				t.Fatal(err)
			}
			for k := 0; k < 3; k++ {
				if mut, muts, _ := mutate.Mutate(mod, rng, 1+k%2); len(muts) > 0 {
					checkers = append(checkers, verilog.PrintModule(mut))
				}
			}
		}
		for _, src := range checkers {
			tb.CheckerSource = src
			f, err := tb.CheckerFile()
			if err != nil {
				t.Fatalf("%s: %v", p.Name, err)
			}
			before := verilog.Print(f)
			if _, err := vstatic.AnalyzeFile(f, tb.CheckerTop); err != nil {
				t.Fatalf("%s: lint: %v", p.Name, err)
			}
			if _, err := tb.RunAgainstDesignContext(context.Background(), base); err != nil && !strings.HasPrefix(err.Error(), "checker: ") {
				t.Fatalf("%s: run: %v", p.Name, err)
			}
			if after := verilog.Print(f); after != before {
				t.Errorf("%s: the checker's parse changed under elaboration, lint and a run", p.Name)
			}
		}
	}
}

// phaseCounts counts a collector's spans by phase.
func phaseCounts(col *obs.Collector) map[string]int {
	n := map[string]int{}
	for _, s := range col.Samples() {
		n[s.Phase]++
	}
	return n
}

// sameOutcomes reports the first DUT whose outcomes differ, or -1.
func sameOutcomes(got, want []BatchOutcome) int {
	if len(got) != len(want) {
		return 0
	}
	for i := range got {
		if !sameOutcome(got[i], want[i]) {
			return i
		}
	}
	return -1
}

// TestWithCheckerKeepsUnchangedMemo: a correction that leaves the
// checker text as it was gives a copy that shares the parent's trace
// store — the parse, the design and both sides' recordings — so the
// copy's first run elaborates nothing and simulates nothing.
func TestWithCheckerKeepsUnchangedMemo(t *testing.T) {
	tb := golden(t, "cnt8")
	base, err := tb.Problem.Elaborate()
	if err != nil {
		t.Fatal(err)
	}
	set := NewDUTSet(base, batchDiffDUTs(t, tb, base))
	want, err := tb.RunBatchContext(context.Background(), set, false)
	if err != nil {
		t.Fatal(err)
	}
	m := tb.checker.Load()
	if m == nil || m.design == nil {
		t.Fatalf("parent memo %+v, want a design", m)
	}
	pieces := len(tb.traceStore().pieces)

	cp := tb.WithChecker(tb.CheckerSource, tb.CheckerPlan, tb.CheckerSticky)
	if cp.traceStore() != tb.traceStore() {
		t.Fatal("the copy does not share the parent's trace store")
	}
	col := obs.NewCollector(time.Time{})
	got, err := cp.RunBatchContext(obs.WithCollector(context.Background(), col), set, false)
	if err != nil {
		t.Fatal(err)
	}
	if i := sameOutcomes(got, want); i >= 0 {
		t.Fatalf("DUT %d: copy's outcome differs from the parent's", i)
	}
	if n := phaseCounts(col); n[obs.PhaseElaborate] != 0 || n[obs.PhaseCompile] != 0 || n[obs.PhaseRun] != 0 {
		t.Errorf("copy's first run spans %v, want no %s, %s or %s", n, obs.PhaseElaborate, obs.PhaseCompile, obs.PhaseRun)
	}
	if f, err := cp.CheckerFile(); err != nil || f != m.file || cp.checker.Load() != m {
		t.Errorf("copy's CheckerFile = %p, %v; want the parent's parse %p", f, err, m.file)
	}
	if n := len(tb.traceStore().pieces); n != pieces || tb.checker.Load() != m {
		t.Errorf("the copy's run changed the shared store: %d pieces, want %d", n, pieces)
	}
}

// TestWithCheckerFreshMemoOnChange: a copy gets a memo of its own when
// its checker differs from the parent's memo — a new text, a parent
// whose CheckerTop moved since the memo was made, or a copy whose
// CheckerTop is edited afterwards — and the parent keeps its memo.
func TestWithCheckerFreshMemoOnChange(t *testing.T) {
	tb := golden(t, "det101")
	base, err := tb.Problem.Elaborate()
	if err != nil {
		t.Fatal(err)
	}
	if res, err := tb.RunAgainstDesignContext(context.Background(), base); err != nil || !res.Pass() {
		t.Fatalf("golden run: %v, %v", res, err)
	}
	m := tb.checker.Load()

	edited := tb.WithChecker(tb.CheckerSource+"\n// edited\n", tb.CheckerPlan, tb.CheckerSticky)
	if edited.checker.Load() != nil {
		t.Fatal("a copy with a changed text got the parent's memo")
	}
	if !edited.SyntaxOK() || edited.checker.Load() == m || edited.checker.Load().src != edited.CheckerSource {
		t.Error("the changed text was not parsed into a memo of its own")
	}

	top := tb.CheckerTop
	tb.CheckerTop = "no_such_top"
	if moved := tb.WithChecker(tb.CheckerSource, tb.CheckerPlan, tb.CheckerSticky); moved.checker.Load() != nil {
		t.Error("a copy whose CheckerTop differs from the memo's got the memo")
	}
	tb.CheckerTop = top

	cp := tb.WithChecker(tb.CheckerSource, tb.CheckerPlan, tb.CheckerSticky)
	cp.CheckerTop = "no_such_top"
	res, err := cp.RunAgainstDesignContext(context.Background(), base)
	if want := `checker: 1:1: top module "no_such_top" not found`; err == nil || err.Error() != want {
		t.Errorf("copy with an edited top: %v, %v; want %q", res, err, want)
	}
	if got := cp.checker.Load(); got == m || got.top != "no_such_top" {
		t.Error("an edit of the copy's CheckerTop kept the shared memo")
	}
	if tb.checker.Load() != m {
		t.Error("the copy's edits replaced the parent's memo")
	}
	if res, err := tb.RunAgainstDesignContext(context.Background(), base); err != nil || !res.Pass() {
		t.Errorf("parent after the copy's edits: %v, %v", res, err)
	}
}

// TestWithCheckerCopyStimulusEdit: an in-place edit of Scenarios on a
// copy that shares the store changes the scenarios' keys: the copy
// records the checker and the DUTs again and gets the outcomes of a
// testbench with a store of its own.
func TestWithCheckerCopyStimulusEdit(t *testing.T) {
	tb := golden(t, "fifo2")
	base, err := tb.Problem.Elaborate()
	if err != nil {
		t.Fatal(err)
	}
	set := NewDUTSet(base, batchDiffDUTs(t, tb, base))
	before, err := tb.RunBatchContext(context.Background(), set, false)
	if err != nil {
		t.Fatal(err)
	}
	cp := tb.WithChecker(tb.CheckerSource, tb.CheckerPlan, tb.CheckerSticky)
	edited := false
	for _, sc := range cp.Scenarios {
		for _, st := range sc.Steps {
			if names := st.SortedNames(); len(names) > 0 {
				st.Inputs[names[len(names)-1]] ^= 1
				edited = true
			}
		}
	}
	if !edited {
		t.Fatal("the stimulus drives no input")
	}
	col := obs.NewCollector(time.Time{})
	got, err := cp.RunBatchContext(obs.WithCollector(context.Background(), col), set, false)
	if err != nil {
		t.Fatal(err)
	}
	// The checker is recorded over the base's ports and over the
	// extra-port DUT's.
	if n := phaseCounts(col); n[obs.PhaseRun] != 3 {
		t.Errorf("run after the edit opened %d %s spans, want 3 (two checker traces and the DUTs)", n[obs.PhaseRun], obs.PhaseRun)
	}
	fresh := &Testbench{Problem: tb.Problem, Scenarios: cp.Scenarios, CheckerSource: tb.CheckerSource, CheckerTop: tb.CheckerTop, CheckerSticky: -1}
	want, err := fresh.RunBatchContext(context.Background(), set, false)
	if err != nil {
		t.Fatal(err)
	}
	if i := sameOutcomes(got, want); i >= 0 {
		t.Fatalf("DUT %d: the edited copy's outcome differs from a memo-less testbench's", i)
	}
	if sameOutcomes(before, want) < 0 {
		t.Error("the edit changed no outcome; the test cannot tell a stale recording from a fresh one")
	}
}

// TestWithCheckerConcurrentParentAndCopies: a parent whose store holds
// only the checker's parse, and copies that share the store, run from
// separate goroutines with no warm-up; every goroutine must see the
// outcomes of a testbench used alone (run it under -race).
func TestWithCheckerConcurrentParentAndCopies(t *testing.T) {
	for _, name := range []string{"cnt8", "prio_enc8"} {
		alone := golden(t, name)
		base, err := alone.Problem.Elaborate()
		if err != nil {
			t.Fatal(err)
		}
		set := NewDUTSet(base, batchDiffDUTs(t, alone, base))
		want, err := alone.RunBatchContext(context.Background(), set, true)
		if err != nil {
			t.Fatal(err)
		}
		parent := golden(t, name)
		if !parent.SyntaxOK() {
			t.Fatal("golden testbench reports a syntax error")
		}
		tbs := []*Testbench{parent}
		for k := 0; k < 3; k++ {
			tbs = append(tbs, parent.WithChecker(parent.CheckerSource, parent.CheckerPlan, parent.CheckerSticky))
		}
		got := make([][]BatchOutcome, 2*len(tbs))
		var wg sync.WaitGroup
		for g := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				tb := tbs[g%len(tbs)]
				if !tb.SyntaxOK() {
					t.Error("SyntaxOK failed on a shared memo")
				}
				out, err := tb.RunBatchContext(context.Background(), set, true)
				if err != nil {
					t.Error(err)
				}
				got[g] = out
			}()
		}
		wg.Wait()
		for g, out := range got {
			if i := sameOutcomes(out, want); i >= 0 {
				t.Errorf("%s goroutine %d: DUT %d outcome differs from a testbench used alone", name, g, i)
			}
		}
		m := parent.checker.Load()
		for _, tb := range tbs {
			if tb.checker.Load() != m {
				t.Errorf("%s: a copy holds a memo of its own", name)
			}
		}
	}
}
