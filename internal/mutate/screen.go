package mutate

import (
	"math/rand"

	"correctbench/internal/verilog"
)

// DistinctMutants generates up to n mutants of m, each carrying `each`
// mutations, that kills reports killed, drawing fresh random sites
// until enough are found or n*20+20 attempts run out. "Distinct" means
// distinct from the golden, not from each other: two draws may yield
// the same mutant text, and both are returned.
//
// Candidates are judged in waves, each of the outstanding need, so
// the n-th kill can only be a wave's last candidate: the draws, the
// returned mutants and the post-call rng state are those of judging
// one candidate at a time. An empty-mutation draw ends generation.
// kills returns one verdict per candidate, in order.
func DistinctMutants(m *verilog.Module, rng *rand.Rand, n, each int, kills func([]*verilog.Module) []bool) []*verilog.Module {
	var out []*verilog.Module
	maxAttempts := n*20 + 20
	attempt := 0
	for attempt < maxAttempts && len(out) < n {
		wave := make([]*verilog.Module, 0, min(n-len(out), maxAttempts-attempt))
		exhausted := false
		for len(wave) < cap(wave) {
			mut, applied, _ := Mutate(m, rng, each)
			attempt++
			if len(applied) == 0 {
				exhausted = true
				break
			}
			wave = append(wave, mut)
		}
		for i, killed := range kills(wave) {
			if killed {
				out = append(out, wave[i])
			}
		}
		if exhausted {
			break
		}
	}
	return out
}
