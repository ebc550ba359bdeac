package mutate

import (
	"math/rand"
	"testing"

	"correctbench/internal/verilog"
)

func parseModule(t *testing.T, src string) *verilog.Module {
	t.Helper()
	f, err := verilog.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return f.Modules[0]
}

func TestScreenRejectsIdentity(t *testing.T) {
	golden := parseModule(t, `module m(input c, input a, output y);
assign y = c ? a : a;
endmodule`)
	s := NewScreen(golden)
	// A reparse prints identically: the strongest possible identity
	// mutant (e.g. TernarySwap over equal branches produces exactly
	// this).
	if !s.Reject(parseModule(t, verilog.PrintModule(golden))) {
		t.Fatal("print-identical candidate must be rejected")
	}
	if s.Reject(parseModule(t, `module m(input c, input a, output y);
assign y = c ? a : ~a;
endmodule`)) {
		t.Fatal("a candidate that prints differently must be kept")
	}
	// Swapping the ternary branches of c ? a : a is the classic
	// identity mutation; find it through the real generator.
	rng := rand.New(rand.NewSource(1))
	found := false
	for i := 0; i < 200 && !found; i++ {
		mut, applied, _ := Mutate(golden, rng, 1)
		if len(applied) == 0 {
			break
		}
		if verilog.PrintModule(mut) == verilog.PrintModule(golden) {
			found = true
			if !s.Reject(mut) {
				t.Fatal("generator-produced identity mutant must be rejected")
			}
		}
	}
	if !found {
		t.Skip("no identity mutation drawn; the reparse case above still covers rejection")
	}
}

func TestScreenFlagsNewStaticErrors(t *testing.T) {
	golden := parseModule(t, `module m(input a, output y);
assign y = a;
endmodule`)
	s := NewScreen(golden)
	// A candidate with a fresh error-severity finding (multiple
	// drivers) is NOT rejected: it might still be killable, and
	// dropping it would change mutant selection.
	dirty := parseModule(t, `module m(input a, output y);
assign y = a;
assign y = ~a;
endmodule`)
	if s.Reject(dirty) {
		t.Fatal("statically dirty candidates must stay in the pool")
	}
}

func TestScreenedGeneratorsPreserveRngStream(t *testing.T) {
	golden := parseModule(t, `module m(input c, input [3:0] a, input [3:0] b, output [3:0] y);
assign y = c ? a : b;
endmodule`)
	differs := func(m *verilog.Module) (bool, error) {
		return len(verilog.PrintModule(m))%2 == 0, nil
	}
	batchDiffers := func(ms []*verilog.Module) []DifferenceResult {
		out := make([]DifferenceResult, len(ms))
		for i, m := range ms {
			d, err := differs(m)
			out[i] = DifferenceResult{Differs: d, Err: err}
		}
		return out
	}
	for seed := int64(0); seed < 5; seed++ {
		r1 := rand.New(rand.NewSource(seed))
		r2 := rand.New(rand.NewSource(seed))
		r3 := rand.New(rand.NewSource(seed))
		plain := DistinctMutantsScreened(golden, r1, 4, 1, differs, nil)
		screened := DistinctMutantsScreened(golden, r2, 4, 1, differs, NewScreen(golden))
		batch := DistinctMutantsBatchScreened(golden, r3, 4, 1, batchDiffers, NewScreen(golden))
		if len(plain) != len(screened) || len(plain) != len(batch) {
			t.Fatalf("seed %d: lengths differ: %d/%d/%d", seed, len(plain), len(screened), len(batch))
		}
		for i := range plain {
			ps := verilog.PrintModule(plain[i])
			if ps != verilog.PrintModule(screened[i]) || ps != verilog.PrintModule(batch[i]) {
				t.Fatalf("seed %d: mutant %d differs across generator variants", seed, i)
			}
		}
		// The rng must land in the same state: the screen draws
		// nothing and skips nothing.
		if a, b, c := r1.Int63(), r2.Int63(), r3.Int63(); a != b || a != c {
			t.Fatalf("seed %d: post-call rng states diverge", seed)
		}
	}
}
