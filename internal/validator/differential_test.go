package validator

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"correctbench/internal/dataset"
	"correctbench/internal/llm"
	"correctbench/internal/mutate"
	"correctbench/internal/sim"
	"correctbench/internal/testbench"
	"correctbench/internal/verilog"
)

// TestCompiledEngineDifferential pins the RS matrices of the whole
// dataset to the reference interpreter: for every problem it builds the
// golden testbench and an imperfect RTL group (mutated, correct and
// syntax-broken candidates, exactly as the paper's validator does) and
// asserts that the matrix render — same rows, same red/green cells,
// same discards — hashes to the SHA-256 recorded for the problem in
// testdata/interp_matrices.sha256 when every simulation ran on the
// interpreter (the file says how). The per-candidate check, each lane
// against the interleaved interpreter oracle, is
// testbench.TestRTLGroupRunsMatchInterp over the same groups.
//
// A change that legitimately alters a matrix cannot re-derive the
// digests from the interpreter any more; the digest file says what to
// check before re-recording them.
func TestCompiledEngineDifferential(t *testing.T) {
	want := interpDigests(t, "testdata/interp_matrices.sha256")
	prof := llm.GPT4o()
	for _, p := range dataset.All() {
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(1234))
			var acct llm.Accountant
			cands, err := GenerateRTLGroup(p, prof, 6, rng, &acct)
			if err != nil {
				t.Fatalf("rtl group: %v", err)
			}
			group, err := NewGroup(context.Background(), p, cands)
			if err != nil {
				t.Fatalf("rtl group: %v", err)
			}
			gtb, err := testbench.Golden(p, rng)
			if err != nil {
				t.Fatalf("golden: %v", err)
			}
			m, ok, err := BuildMatrix(context.Background(), gtb, group)
			if err != nil {
				t.Fatal(err)
			}
			render := "no matrix"
			if ok {
				render = m.Render()
			}
			if got := fmt.Sprintf("%x", sha256.Sum256([]byte(render))); got != want[p.Name] {
				t.Fatalf("RS matrix differs from the interpreter's: digest %s, want %s\n%s", got, want[p.Name], render)
			}
		})
	}
}

// interpDigests reads a digest file: "name sha256" lines, # comments.
func interpDigests(t *testing.T, path string) map[string]string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, line := range strings.Split(string(data), "\n") {
		if name, sum, ok := strings.Cut(line, " "); ok && !strings.HasPrefix(line, "#") {
			out[name] = sum
		}
	}
	return out
}

// TestGroupSharedDesignsDifferential: on every problem, the RS matrices
// of a NewGroup, which elaborates each distinct candidate source once
// and shares the design between equal candidates, must equal those of
// a group whose candidates were elaborated one at a time — same rows
// in the same order, same discarded count — for the golden checker and
// a faulty one, and each row must be a slice of its own.
func TestGroupSharedDesignsDifferential(t *testing.T) {
	ctx := context.Background()
	prof := llm.GPT4o()
	shared := 0
	for _, p := range dataset.All() {
		rng := rand.New(rand.NewSource(4242))
		var acct llm.Accountant
		cands, err := GenerateRTLGroup(p, prof, 20, rng, &acct)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		group, err := NewGroup(ctx, p, cands)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		base, err := p.Elaborate()
		if err != nil {
			t.Fatal(err)
		}
		alone := &Group{Candidates: cands, designs: make([]*sim.Design, len(cands))}
		for i, c := range cands {
			if d, err := sim.ElaborateSourceContext(ctx, c.Source, p.Top); err == nil {
				alone.designs[i] = d
				alone.duts = append(alone.duts, d)
			}
		}
		alone.set = testbench.NewDUTSet(base, alone.duts)
		if len(alone.duts) != len(group.duts) {
			t.Fatalf("%s: %d elaborable candidates, want %d", p.Name, len(group.duts), len(alone.duts))
		}
		for i, d := range group.duts {
			if slices.Index(group.duts, d) < i {
				shared++
			}
		}

		gtb, err := testbench.Golden(p, rng)
		if err != nil {
			t.Fatal(err)
		}
		mod, err := p.Module()
		if err != nil {
			t.Fatal(err)
		}
		mut, _, _ := mutate.Mutate(mod, rng, 1)
		for _, tb := range []*testbench.Testbench{gtb, gtb.WithChecker(verilog.PrintModule(mut), mutate.Plan{}, -1)} {
			want, wantOK, err := BuildMatrix(ctx, tb, alone)
			if err != nil {
				t.Fatal(err)
			}
			got, ok, err := BuildMatrix(ctx, tb, group)
			if err != nil {
				t.Fatal(err)
			}
			if ok != wantOK {
				t.Fatalf("%s: shared-design group ok=%v, one-at-a-time ok=%v", p.Name, ok, wantOK)
			}
			if !ok {
				continue
			}
			if !reflect.DeepEqual(got.Rows, want.Rows) || got.Discarded != want.Discarded {
				t.Fatalf("%s: RS matrices differ\nshared:\n%s\none at a time:\n%s", p.Name, got.Render(), want.Render())
			}
			for i, row := range got.Rows {
				for _, other := range got.Rows[:i] {
					if len(row) > 0 && &row[0] == &other[0] {
						t.Fatalf("%s: rows share a slice", p.Name)
					}
				}
			}
		}
	}
	if shared == 0 {
		t.Error("no group shared a design; the test compared nothing new")
	}
	t.Logf("%d candidates shared a design", shared)
}
