package mutate

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"correctbench/internal/logic"
	"correctbench/internal/sim"
	"correctbench/internal/verilog"
)

const goldenAdder = `
module add4(
    input [3:0] a,
    input [3:0] b,
    output [4:0] s
);
    assign s = a + b;
endmodule
`

const goldenCounter = `
module counter(
    input clk,
    input rst,
    input en,
    output reg [7:0] q
);
    always @(posedge clk) begin
        if (rst) q <= 8'd0;
        else if (en) q <= q + 8'd1;
    end
endmodule
`

func parse(t *testing.T, src string) *verilog.Module {
	t.Helper()
	f, err := verilog.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return f.Modules[0]
}

func TestSiteEnumerationIsDeterministic(t *testing.T) {
	m := parse(t, goldenCounter)
	_, _, n1 := Plan{}.Build(m)
	_, _, n2 := Plan{}.Build(m)
	if n1 == 0 || n1 != n2 {
		t.Fatalf("site counts: %d vs %d", n1, n2)
	}
}

func TestMutantsStayParseable(t *testing.T) {
	for _, src := range []string{goldenAdder, goldenCounter} {
		m := parse(t, src)
		rng := rand.New(rand.NewSource(42))
		for i := 0; i < 50; i++ {
			mut, applied, _ := Mutate(m, rng, 1+rng.Intn(3))
			if len(applied) == 0 {
				t.Fatalf("no mutations applied to %s", m.Name)
			}
			out := verilog.PrintModule(mut)
			if _, err := verilog.Parse(out); err != nil {
				t.Fatalf("mutant does not parse: %v\n%s", err, out)
			}
		}
	}
}

func TestMutationDoesNotTouchOriginal(t *testing.T) {
	m := parse(t, goldenCounter)
	before := verilog.PrintModule(m)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 20; i++ {
		_, _, plan := Mutate(m, rng, 2)
		plan.Build(m)
	}
	if verilog.PrintModule(m) != before {
		t.Fatal("original module modified by mutation")
	}
}

func TestPlanReproducibility(t *testing.T) {
	m := parse(t, goldenCounter)
	rng := rand.New(rand.NewSource(3))
	_, _, plan := Mutate(m, rng, 2)
	m1, muts1, _ := plan.Build(m)
	m2, muts2, _ := plan.Build(m)
	if verilog.PrintModule(m1) != verilog.PrintModule(m2) {
		t.Fatal("same plan produced different mutants")
	}
	if len(muts1) != len(muts2) || len(muts1) != 2 {
		t.Fatalf("mutation lists differ: %v vs %v", muts1, muts2)
	}
}

func TestPlanWithout(t *testing.T) {
	m := parse(t, goldenCounter)
	rng := rand.New(rand.NewSource(3))
	_, _, plan := Mutate(m, rng, 3)
	if len(plan.Sites) == 0 {
		t.Fatal("empty plan")
	}
	removed := plan.Sites[0]
	less := plan.Without(removed)
	if len(less.Sites) != len(plan.Sites)-1 {
		t.Fatalf("Without did not remove: %v -> %v", plan.Sites, less.Sites)
	}
	for _, s := range less.Sites {
		if s == removed {
			t.Fatal("site still present")
		}
	}
	// Without everything = golden behaviour.
	empty := Plan{EnumSeed: plan.EnumSeed}
	back, muts, _ := empty.Build(m)
	if len(muts) != 0 {
		t.Fatalf("empty plan applied mutations: %v", muts)
	}
	if verilog.PrintModule(back) != verilog.PrintModule(m) {
		t.Fatal("empty plan is not identity")
	}
}

func TestPlanWith(t *testing.T) {
	p := Plan{EnumSeed: 1, Sites: []int{2}}
	p2 := p.With(5)
	if len(p2.Sites) != 2 {
		t.Fatalf("With failed: %v", p2.Sites)
	}
	p3 := p2.With(5)
	if len(p3.Sites) != 2 {
		t.Fatalf("With duplicated: %v", p3.Sites)
	}
}

// simDiffers builds a check that compares mutant and golden on a few
// fixed stimuli.
func simDiffers(t *testing.T, goldenSrc, top string, stimuli []map[string]uint64, outs []string) func(*verilog.Module) (bool, error) {
	t.Helper()
	run := func(m *verilog.Module) ([]logic.Vector, error) {
		d, err := sim.ElaborateSourceContext(context.Background(), verilog.PrintModule(m), top)
		if err != nil {
			return nil, err
		}
		in := sim.NewInstance(d)
		if err := in.ZeroInputs(); err != nil {
			return nil, err
		}
		var got []logic.Vector
		for _, stim := range stimuli {
			for k, v := range stim {
				if err := in.SetInputUint(k, v); err != nil {
					return nil, err
				}
			}
			if d.Port("clk") != nil {
				if err := in.Tick("clk"); err != nil {
					return nil, err
				}
			}
			for _, o := range outs {
				v, err := in.Get(o)
				if err != nil {
					return nil, err
				}
				got = append(got, v)
			}
		}
		return got, nil
	}
	goldenMod := parse(t, goldenSrc)
	goldenOut, err := run(goldenMod)
	if err != nil {
		t.Fatalf("golden run: %v", err)
	}
	return func(mut *verilog.Module) (bool, error) {
		mo, err := run(mut)
		if err != nil {
			return false, err
		}
		for i := range mo {
			if !mo[i].Equal(goldenOut[i]) {
				return true, nil
			}
		}
		return false, nil
	}
}

func TestDistinctMutantsKillable(t *testing.T) {
	m := parse(t, goldenAdder)
	stimuli := []map[string]uint64{
		{"a": 0, "b": 0}, {"a": 3, "b": 5}, {"a": 15, "b": 15}, {"a": 9, "b": 1}, {"a": 7, "b": 8},
	}
	differs := simDiffers(t, goldenAdder, "add4", stimuli, []string{"s"})
	kills := func(muts []*verilog.Module) []bool {
		out := make([]bool, len(muts))
		for i, mut := range muts {
			d, err := differs(mut)
			out[i] = err == nil && d
		}
		return out
	}
	rng := rand.New(rand.NewSource(99))
	mutants := DistinctMutants(m, rng, 10, 1, kills)
	if len(mutants) < 5 {
		t.Fatalf("got only %d killable mutants", len(mutants))
	}
	for _, mut := range mutants {
		ok, err := differs(mut)
		if err != nil || !ok {
			t.Errorf("mutant not killable: %v %v", ok, err)
		}
	}
}

func TestCorruptSyntaxAlwaysBreaksParse(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 40; i++ {
		out := CorruptSyntax(goldenCounter, rng)
		if _, err := verilog.Parse(out); err == nil {
			t.Fatalf("corrupted source still parses:\n%s", out)
		}
	}
}

func TestMutationKindsCovered(t *testing.T) {
	src := `
module mix(
    input clk,
    input [3:0] a,
    input [3:0] b,
    input sel,
    output reg [3:0] y,
    output reg [3:0] z
);
    always @(posedge clk) begin
        if (sel) y <= a + b;
        else y <= a - b;
        case (a[1:0])
            2'd0: z <= a & b;
            2'd1: z <= a | b;
            default: z <= ~(a ^ b);
        endcase
    end
endmodule`
	m := parse(t, src)
	rng := rand.New(rand.NewSource(1))
	seen := map[Kind]bool{}
	for i := 0; i < 300; i++ {
		_, muts, _ := Mutate(m, rng, 1)
		for _, mu := range muts {
			seen[mu.Kind] = true
		}
	}
	for _, k := range []Kind{OpSwap, ConstPerturb, CondNegate, UnaryDrop, UnaryInsert, CaseSwap, AssignKind, IdentSwap} {
		if !seen[k] {
			t.Errorf("kind %s never produced", k)
		}
	}
}

func TestMutationDescriptions(t *testing.T) {
	m := parse(t, goldenAdder)
	rng := rand.New(rand.NewSource(2))
	_, muts, _ := Mutate(m, rng, 1)
	if len(muts) != 1 {
		t.Fatal("expected one mutation")
	}
	if muts[0].Desc == "" || !strings.Contains(muts[0].String(), string(muts[0].Kind)) {
		t.Errorf("bad mutation description: %+v", muts[0])
	}
}

// distinctMutantsSequential is the reference DistinctMutants must
// reproduce: one candidate drawn and judged at a time.
func distinctMutantsSequential(m *verilog.Module, rng *rand.Rand, n, each int, kills func(*verilog.Module) bool) []*verilog.Module {
	var out []*verilog.Module
	for attempt := 0; attempt < n*20+20 && len(out) < n; attempt++ {
		mut, applied, _ := Mutate(m, rng, each)
		if len(applied) == 0 {
			break
		}
		if kills(mut) {
			out = append(out, mut)
		}
	}
	return out
}

var errFakeElab = errors.New("fake elaboration failure")

// TestDistinctMutantsBatchMatchesSequential asserts the rng-exactness
// contract of DistinctMutants: with an equivalent verdict it must
// return byte-identical mutants AND leave the rng in the same state as
// judging one candidate at a time, so its waves change nothing but the
// number of kills calls.
func TestDistinctMutantsBatchMatchesSequential(t *testing.T) {
	predicates := map[string]func(src string) (bool, error){
		"hash-even": func(src string) (bool, error) {
			var h uint32
			for i := 0; i < len(src); i++ {
				h = h*31 + uint32(src[i])
			}
			if h%7 == 0 {
				return false, errFakeElab
			}
			return h%2 == 0, nil
		},
		"accept-all": func(string) (bool, error) { return true, nil },
		"reject-all": func(string) (bool, error) { return false, nil },
	}
	for _, src := range []string{goldenAdder, goldenCounter} {
		m := parse(t, src)
		for pname, pred := range predicates {
			for _, n := range []int{1, 3, 10} {
				seq := func(mut *verilog.Module) bool {
					d, err := pred(verilog.PrintModule(mut))
					return err == nil && d
				}
				batch := func(muts []*verilog.Module) []bool {
					out := make([]bool, len(muts))
					for i, mut := range muts {
						out[i] = seq(mut)
					}
					return out
				}
				rngA := rand.New(rand.NewSource(int64(n) * 977))
				rngB := rand.New(rand.NewSource(int64(n) * 977))
				a := distinctMutantsSequential(m, rngA, n, 1, seq)
				b := DistinctMutants(m, rngB, n, 1, batch)
				if len(a) != len(b) {
					t.Fatalf("%s n=%d: %d sequential vs %d batched mutants", pname, n, len(a), len(b))
				}
				for i := range a {
					if verilog.PrintModule(a[i]) != verilog.PrintModule(b[i]) {
						t.Fatalf("%s n=%d: mutant %d differs", pname, n, i)
					}
				}
				if x, y := rngA.Int63(), rngB.Int63(); x != y {
					t.Fatalf("%s n=%d: rng state diverged after call (%d vs %d)", pname, n, x, y)
				}
			}
		}
	}
}
