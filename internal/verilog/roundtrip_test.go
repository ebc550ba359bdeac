package verilog_test

// Whole-corpus round-trip property: every golden source in the dataset
// survives parse -> print -> parse with a stable second print. Kept in
// an external test package to exercise the public API surface and to
// avoid an import cycle with internal/dataset.

import (
	"testing"

	"correctbench/internal/dataset"
	"correctbench/internal/verilog"
)

func TestDatasetRoundTrip(t *testing.T) {
	for _, p := range dataset.All() {
		f1, err := verilog.Parse(p.Source)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		p1 := verilog.Print(f1)
		f2, err := verilog.Parse(p1)
		if err != nil {
			t.Fatalf("%s: reparse: %v\n%s", p.Name, err, p1)
		}
		if p2 := verilog.Print(f2); p1 != p2 {
			t.Errorf("%s: print not stable", p.Name)
		}
	}
}
