package verilog_test

import (
	"math/rand"
	"testing"

	"correctbench/internal/dataset"
	"correctbench/internal/mutate"
	"correctbench/internal/testbench"
	"correctbench/internal/verilog"
)

// FuzzParse feeds arbitrary source to the parser, which /v1/grade
// exposes to untrusted checker and driver text. Parse must never
// panic, and whatever it accepts must print to a fixed point: the
// printed form parses again and prints identically. The corpus is
// seeded with every golden design, an emitted driver per problem and
// syntax-corrupted goldens.
func FuzzParse(f *testing.F) {
	// String literals keep their escapes undecoded and may hold any
	// byte but a newline or an unescaped quote.
	f.Add("module m; initial $display(\"q=\\\"%d\\\"\\n\xc1\", 1); endmodule")
	rng := rand.New(rand.NewSource(1))
	for _, p := range dataset.All() {
		f.Add(p.Source)
		f.Add(mutate.CorruptSyntax(p.Source, rng))
		tb, err := testbench.Golden(p, rng)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(tb.Driver())
	}
	f.Fuzz(func(t *testing.T, src string) {
		f1, err := verilog.Parse(src)
		if err != nil {
			return
		}
		p1 := verilog.Print(f1)
		f2, err := verilog.Parse(p1)
		if err != nil {
			t.Fatalf("printed form does not parse: %v\nsource:\n%s\nprinted:\n%s", err, src, p1)
		}
		if p2 := verilog.Print(f2); p2 != p1 {
			t.Fatalf("print is not a fixed point\nsource:\n%s\nfirst:\n%s\nsecond:\n%s", src, p1, p2)
		}
	})
}
