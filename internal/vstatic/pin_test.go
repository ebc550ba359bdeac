package vstatic_test

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"correctbench/internal/dataset"
	"correctbench/internal/mutate"
	"correctbench/internal/verilog"
	"correctbench/internal/vstatic"
)

// TestLintPin hashes the rendered diagnostics of every golden and of 20
// seeded mutants of each (seed 7), and compares the digest and line
// count with testdata/lint_pin.txt. The pin makes any change to a lint
// verdict visible: a change that moves it must show, with an engine
// run, that each new verdict matches what the engine does, and then
// record the new pin.
func TestLintPin(t *testing.T) {
	want, err := os.ReadFile("testdata/lint_pin.txt")
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	lines := 0
	emit := func(format string, args ...any) {
		fmt.Fprintf(h, format+"\n", args...)
		lines++
	}
	lint := func(name, src, top string) {
		rs, err := vstatic.AnalyzeSource(src, top)
		if err != nil {
			emit("%s: %v", name, err)
			return
		}
		for _, d := range rs[0].Diags {
			emit("%s: %s", name, d)
		}
	}
	rng := rand.New(rand.NewSource(7))
	for _, p := range dataset.All() {
		lint(p.Name, p.Source, p.Top)
		f, err := verilog.Parse(p.Source)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		for i := 0; i < 20; i++ {
			mut, _, _ := mutate.Mutate(f.Module(p.Top), rng, 1)
			lint(fmt.Sprintf("%s/%d", p.Name, i), verilog.PrintModule(mut), p.Top)
		}
	}
	if got := fmt.Sprintf("%x %d", h.Sum(nil), lines); got != strings.TrimSpace(string(want)) {
		t.Errorf("lint pin %s, want %s", got, strings.TrimSpace(string(want)))
	}
}
