package sim_test

// Differential tests tying the two static-classification fronts
// together: the module-level lint (vstatic.AnalyzeModule over raw
// source) and the engine itself (the levelized flag of the program
// CompileBatch builds for a design alone). The run-once levelized
// schedule is only sound if these agree, so any widening of one front
// must be proven on the other — across every dataset problem and a
// seeded mutant sweep.

import (
	"context"
	"math/rand"
	"testing"

	"correctbench/internal/dataset"
	"correctbench/internal/mutate"
	"correctbench/internal/sim"
	"correctbench/internal/verilog"
	"correctbench/internal/vstatic"
)

// classifyModule runs the module-level analysis on src/top.
func classifyModule(t *testing.T, src, top string) *vstatic.Result {
	t.Helper()
	rs, err := vstatic.AnalyzeSource(src, top)
	if err != nil {
		t.Fatalf("AnalyzeSource: %v", err)
	}
	return rs[0]
}

// levelized reports whether d alone runs on the levelized schedule.
func levelized(d *sim.Design) bool {
	return sim.CompileBatch(d, []*sim.Design{d})[0].Levelized()
}

func TestStaticClassificationAgreesOnAllGoldens(t *testing.T) {
	lev := 0
	for _, p := range dataset.All() {
		mr := classifyModule(t, p.Source, p.Top)
		d, err := p.Elaborate()
		if err != nil {
			t.Fatalf("%s: elaborate: %v", p.Name, err)
		}
		lev1 := levelized(d)
		if mr.Levelizable != lev1 {
			t.Errorf("%s: module lint says levelizable=%v, engine levelized=%v", p.Name, mr.Levelizable, lev1)
		}
		if lev1 {
			lev++
		}
	}
	// The bit-granular definite-assignment analysis covers the whole
	// dataset; a regression here silently slows the batch engine.
	if total := len(dataset.All()); lev != total {
		t.Errorf("levelized coverage %d/%d, want full coverage", lev, total)
	}
}

func TestStaticClassificationAgreesOnMutants(t *testing.T) {
	rng := rand.New(rand.NewSource(20250807))
	checked := 0
	for _, p := range dataset.All() {
		f, err := verilog.Parse(p.Source)
		if err != nil {
			t.Fatalf("%s: parse: %v", p.Name, err)
		}
		golden := f.Module(p.Top)
		for i := 0; i < 3; i++ {
			mut, applied, _ := mutate.Mutate(golden, rng, 1)
			if len(applied) == 0 {
				break
			}
			src := verilog.PrintModule(mut)
			d, err := sim.ElaborateSourceContext(context.Background(), src, p.Top)
			if err != nil {
				// Mutants the engine rejects are outside the contract.
				continue
			}
			mr := classifyModule(t, src, p.Top)
			if lev := levelized(d); mr.Levelizable != lev {
				t.Errorf("%s mutant %d: module lint levelizable=%v, engine levelized=%v\n%s",
					p.Name, i, mr.Levelizable, lev, src)
			}
			checked++
		}
	}
	if checked < 300 {
		t.Fatalf("mutant sweep too thin: only %d mutants checked", checked)
	}
}

// TestPreScreenRejectsOnlyUnkillableMutants drives the screened and
// unscreened generators from identical rng streams over the whole
// dataset and proves (a) they return byte-identical mutant lists —
// screening never changes selection — and (b) every rejected
// candidate is print-identical to the golden, i.e. elaborates to the
// very same design no engine could distinguish.
func TestPreScreenRejectsOnlyUnkillableMutants(t *testing.T) {
	differs := func(mutants []*verilog.Module) []mutate.DifferenceResult {
		// A deterministic stand-in checker: judged purely on printed
		// source, so screened and unscreened runs judge identically.
		out := make([]mutate.DifferenceResult, len(mutants))
		for i, m := range mutants {
			out[i] = mutate.DifferenceResult{Differs: len(verilog.PrintModule(m))%2 == 0}
		}
		return out
	}
	rejected := 0
	for _, p := range dataset.All() {
		f, err := verilog.Parse(p.Source)
		if err != nil {
			t.Fatalf("%s: parse: %v", p.Name, err)
		}
		golden := f.Module(p.Top)
		goldenSrc := verilog.PrintModule(golden)

		screen := mutate.NewScreen(golden)
		plain := mutate.DistinctMutantsBatchScreened(golden, rand.New(rand.NewSource(7)), 6, 1, differs, nil)
		screened := mutate.DistinctMutantsBatchScreened(golden, rand.New(rand.NewSource(7)), 6, 1, differs, screen)

		if len(plain) != len(screened) {
			t.Fatalf("%s: screened run returned %d mutants, unscreened %d", p.Name, len(screened), len(plain))
		}
		for i := range plain {
			if verilog.PrintModule(plain[i]) != verilog.PrintModule(screened[i]) {
				t.Fatalf("%s: mutant %d differs between screened and unscreened runs", p.Name, i)
			}
		}
		// Re-derive every candidate the generator could draw within its
		// attempt budget and verify that each one the screen rejects
		// elaborates from source byte-identical to the golden's.
		reRng := rand.New(rand.NewSource(7))
		for attempt := 0; attempt < 6*20+20; attempt++ {
			mut, applied, _ := mutate.Mutate(golden, reRng, 1)
			if len(applied) == 0 {
				break
			}
			if !screen.Reject(mut) {
				continue
			}
			rejected++
			// The screen's whole rejection criterion: identical print ⇒
			// identical elaboration input ⇒ identical behavior under
			// every engine.
			if src := verilog.PrintModule(mut); src != goldenSrc {
				t.Fatalf("%s: rejected candidate prints differently from the golden:\n%s", p.Name, src)
			}
			if _, err := sim.ElaborateSourceContext(context.Background(), goldenSrc, p.Top); err != nil {
				t.Fatalf("%s: golden source stopped elaborating: %v", p.Name, err)
			}
		}
	}
	t.Logf("pre-screen rejected %d identity candidates across the dataset", rejected)
}
