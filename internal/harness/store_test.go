package harness

import (
	"context"
	"reflect"
	"testing"

	"correctbench/internal/dataset"
	"correctbench/internal/store"
	"correctbench/internal/validator"
)

func storeTestProblems(t *testing.T) []*dataset.Problem {
	t.Helper()
	var out []*dataset.Problem
	for _, n := range []string{"halfadd", "dff"} {
		p := dataset.ByName(n)
		if p == nil {
			t.Fatalf("problem %s missing", n)
		}
		out = append(out, p)
	}
	return out
}

// TestStoreWarmRerun pins the store contract at the harness level: a
// warm rerun simulates nothing and reproduces the cold run's results
// exactly, and a no-store run matches both.
func TestStoreWarmRerun(t *testing.T) {
	probs := storeTestProblems(t)
	st := store.NewMemory(0)
	cfg := Config{Seed: 21, Reps: 2, Problems: probs, Store: st}

	cold, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	total := len(AllMethods()) * 2 * len(probs)
	if cold.Store.Hits != 0 || cold.Store.Misses != total {
		t.Fatalf("cold hits/misses = %d/%d, want 0/%d", cold.Store.Hits, cold.Store.Misses, total)
	}
	if s := st.Stats(); s.Entries != total {
		t.Fatalf("store entries = %d, want %d", s.Entries, total)
	}

	warm, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Store.Hits != total || warm.Store.Misses != 0 {
		t.Fatalf("warm hits/misses = %d/%d, want %d/0", warm.Store.Hits, warm.Store.Misses, total)
	}
	if !reflect.DeepEqual(cold.Outcomes, warm.Outcomes) {
		t.Error("warm outcomes differ from cold")
	}

	plain, err := RunContext(context.Background(), Config{Seed: 21, Reps: 2, Problems: probs})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain.Outcomes, warm.Outcomes) {
		t.Error("warm outcomes differ from an uncached run")
	}
	if plain.Store.Hits != 0 || plain.Store.Misses != 0 {
		t.Errorf("no-store run reported counters: %d/%d", plain.Store.Hits, plain.Store.Misses)
	}
}

// TestCellKeyComposition checks that every input the key documents
// actually lands in it — equal configs agree, and each divergence
// (seed, criterion, budgets, rep, problem content) moves the key.
func TestCellKeyComposition(t *testing.T) {
	probs := storeTestProblems(t)
	base := Config{Seed: 7, Reps: 1, Problems: probs}
	base.Normalize()
	k := func(cfg Config, rep int, p *dataset.Problem) store.Key {
		cfg.Normalize()
		return CellKey(&cfg, MethodCorrectBench, rep, p)
	}

	if k(base, 0, probs[0]) != k(base, 0, probs[0]) {
		t.Fatal("identical configs produced different keys")
	}

	variants := map[string]store.Key{
		"seed":      k(Config{Seed: 8, Reps: 1, Problems: probs}, 0, probs[0]),
		"rep":       k(base, 1, probs[0]),
		"problem":   k(base, 0, probs[1]),
		"criterion": k(Config{Seed: 7, Reps: 1, Problems: probs, Criterion: validator.Wrong100}, 0, probs[0]),
		"mc":        k(Config{Seed: 7, Reps: 1, Problems: probs, MaxCorrections: intp(0)}, 0, probs[0]),
		"mr":        k(Config{Seed: 7, Reps: 1, Problems: probs, MaxReboots: intp(0)}, 0, probs[0]),
		"nr":        k(Config{Seed: 7, Reps: 1, Problems: probs, NR: intp(5)}, 0, probs[0]),
	}
	ref := k(base, 0, probs[0])
	seen := map[store.Key]string{ref: "base"}
	for name, key := range variants {
		if prev, dup := seen[key]; dup {
			t.Errorf("%s collides with %s", name, prev)
		}
		seen[key] = name
	}

	// AutoBench/Baseline cells never read the criterion or budgets, so
	// those knobs must NOT move their keys — a criterion sweep shares
	// two thirds of the grid with the warm store.
	kb := func(cfg Config) store.Key {
		cfg.Normalize()
		return CellKey(&cfg, MethodBaseline, 0, probs[0])
	}
	if kb(base) != kb(Config{Seed: 7, Reps: 1, Problems: probs, Criterion: validator.Wrong100, MaxReboots: intp(0)}) {
		t.Error("criterion/budget change moved a Baseline cell key")
	}

	// Explicit paper-default budgets equal nil budgets: the key hashes
	// effective values, so "default by omission" and "default by
	// explicit value" share cache entries.
	exp := k(Config{Seed: 7, Reps: 1, Problems: probs,
		MaxCorrections: intp(3), MaxReboots: intp(10), NR: intp(20)}, 0, probs[0])
	if exp != ref {
		t.Error("explicit paper defaults keyed differently from nil defaults")
	}

	// A dataset edit invalidates: a problem differing only in spec
	// text fingerprints — and therefore keys — differently.
	edited := &dataset.Problem{
		Name: probs[0].Name, Kind: probs[0].Kind, Spec: probs[0].Spec + " (edited)",
		Source: probs[0].Source, Top: probs[0].Top, Difficulty: probs[0].Difficulty,
	}
	if k(base, 0, edited) == ref {
		t.Error("spec edit did not change the cell key")
	}
}

// TestStoreMismatchedRecordIsMiss guards the identity check: a record
// stored under a cell's key but carrying another problem's payload is
// ignored, not replayed.
func TestStoreMismatchedRecordIsMiss(t *testing.T) {
	probs := storeTestProblems(t)
	st := store.NewMemory(0)
	cfg := Config{Seed: 3, Reps: 1, Problems: probs[:1], Store: st}
	cfg.Normalize()
	key := CellKey(&cfg, MethodBaseline, 0, probs[0])
	if err := st.Put(key, store.Outcome{Problem: "someone_else", Grade: 3}); err != nil {
		t.Fatal(err)
	}
	res, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Store.Hits != 0 {
		t.Errorf("mismatched record replayed (%d hits)", res.Store.Hits)
	}
}

func intp(v int) *int { return &v }
