package mutate

import (
	"math/rand"

	"correctbench/internal/verilog"
)

// Screen statically pre-screens candidate mutants before any
// simulation. It rejects identity candidates — mutants whose printed
// source equals the golden's: byte-identical RTL elaborates to
// identical behavior, so no engine can ever kill them and the
// difference check would waste a simulation lane.
//
// Screening never alters the candidate stream: every draw happens
// whether or not it is screened out, so the mutants returned by the
// screened generators (and the post-call rng state) are identical to
// the unscreened ones.
type Screen struct {
	golden string
}

// NewScreen builds a screen against golden.
func NewScreen(golden *verilog.Module) *Screen {
	return &Screen{golden: verilog.PrintModule(golden)}
}

// Reject inspects one candidate and reports whether it is provably
// unkillable (identity).
func (s *Screen) Reject(mut *verilog.Module) bool {
	return verilog.PrintModule(mut) == s.golden
}

// DistinctMutantsScreened generates up to n mutants that each differ
// behaviourally from the golden module according to differs, drawing
// fresh random sites until enough are found or attempts run out, one
// difference check per candidate. "Distinct" means distinct from the
// golden, not from each other: two draws may yield the same mutant
// text, and both are returned. Mutants that fail elaboration are
// discarded too (differs should report an error for those). It is the
// sequential reference DistinctMutantsBatchScreened must reproduce.
//
// A static pre-screen sits in front of the difference check; a nil
// screen disables screening. Rejected candidates consume attempts
// exactly as a non-differing candidate would, so the rng draw sequence
// — and therefore the returned mutants — match the unscreened call.
func DistinctMutantsScreened(m *verilog.Module, rng *rand.Rand, n int, mutationsEach int, differs DifferenceChecker, screen *Screen) []*verilog.Module {
	var out []*verilog.Module
	maxAttempts := n*20 + 20
	for attempt := 0; attempt < maxAttempts && len(out) < n; attempt++ {
		mut, applied, _ := Mutate(m, rng, mutationsEach)
		if len(applied) == 0 {
			break
		}
		if screen != nil && screen.Reject(mut) {
			continue
		}
		ok, err := differs(mut)
		if err != nil || !ok {
			continue
		}
		out = append(out, mut)
	}
	return out
}

// DistinctMutantsBatchScreened is DistinctMutantsScreened — mutants
// distinct from the golden, not from each other — with the
// difference checks batched into waves. Candidates are drawn from rng
// in exactly the order and quantity the sequential version would draw
// them — each wave requests only the outstanding need, capped by the
// remaining attempt budget, and an empty-mutation draw ends generation
// just like the sequential break — so with an equivalent checker the
// returned mutants and the post-call rng state are identical; only the
// number of checker invocations changes.
//
// The static pre-screen is applied to each wave before the batched
// difference check; a nil screen disables screening. Screened-out
// candidates are drawn and counted exactly like candidates the checker
// rejects, so draws, returned mutants and rng state match the
// unscreened call; only the waves handed to differs shrink.
func DistinctMutantsBatchScreened(m *verilog.Module, rng *rand.Rand, n int, mutationsEach int, differs BatchDifferenceChecker, screen *Screen) []*verilog.Module {
	var out []*verilog.Module
	maxAttempts := n*20 + 20
	attempt := 0
	for attempt < maxAttempts && len(out) < n {
		want := n - len(out)
		if rem := maxAttempts - attempt; want > rem {
			want = rem
		}
		wave := make([]*verilog.Module, 0, want)
		exhausted := false
		for len(wave) < want && attempt < maxAttempts {
			mut, applied, _ := Mutate(m, rng, mutationsEach)
			attempt++
			if len(applied) == 0 {
				exhausted = true
				break
			}
			if screen != nil && screen.Reject(mut) {
				continue
			}
			wave = append(wave, mut)
		}
		if len(wave) > 0 {
			verdicts := differs(wave)
			for i, mut := range wave {
				if i < len(verdicts) && verdicts[i].Err == nil && verdicts[i].Differs {
					out = append(out, mut)
				}
			}
		}
		if exhausted {
			break
		}
	}
	return out
}
