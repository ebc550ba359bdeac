package mutate

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"correctbench/internal/dataset"
	"correctbench/internal/logic"
	"correctbench/internal/verilog"
)

// The clone oracle is the mutation path before enumerate learned to
// copy: deep-copy the golden by printing and re-parsing it, then bind
// every site to the nodes of that copy in place. enumerateInPlace is
// the pre-copy enumerate, kept verbatim (but for slices.Sort), so the
// oracle shares only the site tables, declWidths and Plan.apply with
// the code under test.

// oracleBuild is Plan.Build over a print→parse copy.
func oracleBuild(t *testing.T, g *verilog.Module, p Plan) (*verilog.Module, []Mutation) {
	t.Helper()
	c := reparse(t, g)
	return c, p.apply(enumerateInPlace(c, rand.New(rand.NewSource(p.EnumSeed))))
}

// oracleMutate is the two-pass Mutate: count the sites on a copy, draw
// the plan, then build it on a fresh copy.
func oracleMutate(t *testing.T, g *verilog.Module, rng *rand.Rand, count int) (*verilog.Module, []Mutation) {
	t.Helper()
	p := Plan{EnumSeed: rng.Int63()}
	if count > 0 {
		n := len(enumerateInPlace(reparse(t, g), rand.New(rand.NewSource(p.EnumSeed))))
		if n > 0 {
			p.Sites = rng.Perm(n)[:min(count, n)]
		}
	}
	return oracleBuild(t, g, p)
}

// nestedDrops nests ~ and ! inside ~ and !, so a plan can drop an
// operator together with one inside its operand, in either order.
const nestedDrops = `module nd(input [3:0] a, input [3:0] b, input c, output [3:0] y, output z);
    assign y = ~(~a & ~(b | ~a));
    assign z = !(!c || !(a == b));
endmodule`

// TestBuildMatchesCloneOracle pins Plan.Build and Mutate to the clone
// oracle on every dataset golden: the same printed mutant, the same
// applied mutations, the same site count and the same post-call rng
// state, with the golden itself left untouched.
func TestBuildMatchesCloneOracle(t *testing.T) {
	goldens := []*verilog.Module{parse(t, nestedDrops)}
	for _, p := range dataset.All() {
		g, err := p.Module()
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		goldens = append(goldens, g)
	}
	dropPlans := 0
	for _, g := range goldens {
		before := verilog.PrintModule(g)
		same := func(what string, got *verilog.Module, gotMuts []Mutation, want *verilog.Module, wantMuts []Mutation) {
			t.Helper()
			if !slices.Equal(gotMuts, wantMuts) {
				t.Fatalf("%s %s: mutations %v, oracle %v", g.Name, what, gotMuts, wantMuts)
			}
			if a, b := verilog.PrintModule(got), verilog.PrintModule(want); a != b {
				t.Fatalf("%s %s: mutant differs from the oracle's\n--- got ---\n%s\n--- oracle ---\n%s", g.Name, what, a, b)
			}
		}
		for _, seed := range []int64{0, 42, 1 << 40} {
			sites := enumerateInPlace(reparse(t, g), rand.New(rand.NewSource(seed)))
			if _, _, n := (Plan{EnumSeed: seed}).Build(g); n != len(sites) {
				t.Fatalf("%s seed %d: %d sites in place, %d on the oracle's copy", g.Name, seed, n, len(sites))
			}
			// A drop's operand enumerates right after it, so pairs of
			// nearby drops include every drop nested in another's
			// operand within a few sites.
			var drops [][2]int
			for i, s := range sites {
				plan := Plan{EnumSeed: seed, Sites: []int{i}}
				got, gotMuts, _ := plan.Build(g)
				want, wantMuts := oracleBuild(t, g, plan)
				same(fmt.Sprintf("seed %d site %d", seed, i), got, gotMuts, want, wantMuts)
				if s.kind != UnaryDrop {
					continue
				}
				for j := i + 1; j < len(sites) && j <= i+8; j++ {
					if sites[j].kind == UnaryDrop {
						drops = append(drops, [2]int{i, j})
					}
				}
			}
			r := rand.New(rand.NewSource(seed))
			var plans [][]int
			for _, d := range drops {
				plans = append(plans, []int{d[0], d[1]}, []int{d[1], d[0]})
			}
			for k := 0; k < 12 && len(sites) >= 2; k++ {
				idxs := r.Perm(len(sites))[:min(2+r.Intn(3), len(sites))]
				if len(drops) > 0 && k%2 == 0 {
					d := drops[r.Intn(len(drops))]
					idxs = append([]int{d[1], d[0]}, idxs...)
				}
				plans = append(plans, idxs)
			}
			for _, idxs := range plans {
				plan := Plan{EnumSeed: seed, Sites: idxs}
				got, gotMuts, _ := plan.Build(g)
				want, wantMuts := oracleBuild(t, g, plan)
				same(fmt.Sprintf("seed %d sites %v", seed, idxs), got, gotMuts, want, wantMuts)
			}
			dropPlans += 2 * len(drops)
		}
		for seed := int64(0); seed < 8; seed++ {
			for count := 1; count <= 4; count++ {
				ra, rb := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
				got, gotMuts, plan := Mutate(g, ra, count)
				want, wantMuts := oracleMutate(t, g, rb, count)
				same(fmt.Sprintf("Mutate seed %d count %d", seed, count), got, gotMuts, want, wantMuts)
				rebuilt, rebuiltMuts, _ := plan.Build(g)
				same(fmt.Sprintf("Mutate seed %d count %d, rebuilt from its plan", seed, count), rebuilt, rebuiltMuts, want, wantMuts)
				if a, b := ra.Int63(), rb.Int63(); a != b {
					t.Fatalf("%s Mutate seed %d count %d: rng state diverged from the oracle's", g.Name, seed, count)
				}
			}
		}
		if after := verilog.PrintModule(g); after != before {
			t.Fatalf("%s: building mutants changed the golden\n--- before ---\n%s\n--- after ---\n%s", g.Name, before, after)
		}
	}
	if dropPlans == 0 {
		t.Fatal("no plan dropped two nearby ~ or ! operators")
	}
}

// TestConcurrentBuildsShareGolden builds mutants of shared dataset
// goldens from several goroutines at once. Under -race it reports any
// write that reaches a golden through its copies; without it the
// concurrent builds must still equal sequential ones.
func TestConcurrentBuildsShareGolden(t *testing.T) {
	const workers, draws = 4, 16
	all := dataset.All()
	for i := 0; i < len(all); i += 13 {
		p := all[i]
		g, err := p.Module()
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		build := func(seed int64) []string {
			rng := rand.New(rand.NewSource(seed))
			var out []string
			for k := 0; k < draws; k++ {
				mut, _, _ := Mutate(g, rng, 1+k%3)
				_, _, plan := Mutate(g, rng, 1+k%4)
				built, _, _ := plan.Build(g)
				out = append(out, verilog.PrintModule(mut), verilog.PrintModule(built))
			}
			return out
		}
		want := build(0)
		before := verilog.PrintModule(g)
		got := make([][]string, workers)
		var wg sync.WaitGroup
		for w := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[w] = build(0)
			}()
		}
		wg.Wait()
		for w := range got {
			if !slices.Equal(got[w], want) {
				t.Fatalf("%s: goroutine %d built different mutants than a sequential run", p.Name, w)
			}
		}
		if verilog.PrintModule(g) != before {
			t.Fatalf("%s: concurrent builds changed the golden", p.Name)
		}
	}
}

func reparse(t *testing.T, g *verilog.Module) *verilog.Module {
	t.Helper()
	f, err := verilog.Parse(verilog.PrintModule(g))
	if err != nil {
		t.Fatalf("%s: printed golden does not parse: %v", g.Name, err)
	}
	return f.Modules[0]
}

func enumerateInPlace(m *verilog.Module, rng *rand.Rand) []site {
	var sites []site
	widths := declWidths(m)

	addExprSites := func(root *verilog.Expr, withInvert bool) {
		var walk func(ep *verilog.Expr)
		walk = func(ep *verilog.Expr) {
			switch x := (*ep).(type) {
			case nil:
				return
			case *verilog.Binary:
				if repls, ok := opSwapTable[x.Op]; ok {
					repl := repls[rng.Intn(len(repls))]
					op := x
					sites = append(sites, site{
						kind:  OpSwap,
						desc:  fmt.Sprintf("%s -> %s", op.Op, repl),
						apply: func() { op.Op = repl },
					})
				}
				walk(&x.X)
				walk(&x.Y)
			case *verilog.Unary:
				if x.Op == "~" || x.Op == "!" {
					target := ep
					inner := x.X
					sites = append(sites, site{
						kind:  UnaryDrop,
						desc:  "drop " + x.Op,
						apply: func() { *target = inner },
					})
				}
				walk(&x.X)
			case *verilog.Ternary:
				t := x
				sites = append(sites, site{
					kind:  TernarySwap,
					desc:  "swap ?: branches",
					apply: func() { t.Then, t.Else = t.Else, t.Then },
				})
				walk(&x.Cond)
				walk(&x.Then)
				walk(&x.Else)
			case *verilog.Number:
				n := x
				if n.Width == 1 || n.Val.Width() == 1 {
					sites = append(sites, site{
						kind: ConstPerturb,
						desc: "flip 1-bit literal",
						apply: func() {
							n.Val = logic.NotV(n.Val)
							n.Text = ""
						},
					})
				} else if v, ok := n.Val.Uint64(); ok {
					delta := uint64(1)
					nv := v + delta
					if rng.Intn(2) == 0 && v > 0 {
						nv = v - delta
					}
					w := n.Val.Width()
					sites = append(sites, site{
						kind: ConstPerturb,
						desc: fmt.Sprintf("%d -> %d", v, nv),
						apply: func() {
							n.Val = logic.FromUint64(w, nv)
							n.Text = ""
						},
					})
				}
			case *verilog.Concat:
				for i := range x.Parts {
					walk(&x.Parts[i])
				}
			case *verilog.Repl:
				walk(&x.Value)
			case *verilog.Index:
				walk(&x.Index)
			case *verilog.PartSelect:
				walk(&x.MSB)
				walk(&x.LSB)
			case *verilog.Ident:
				// Ident swap: replace with another same-width signal.
				if w, ok := widths[x.Name]; ok {
					var cands []string
					for n, nw := range widths {
						if n != x.Name && nw == w {
							cands = append(cands, n)
						}
					}
					if len(cands) > 0 {
						slices.Sort(cands)
						repl := cands[rng.Intn(len(cands))]
						id := x
						sites = append(sites, site{
							kind:  IdentSwap,
							desc:  fmt.Sprintf("%s -> %s", id.Name, repl),
							apply: func() { id.Name = repl },
						})
					}
				}
			}
		}
		walk(root)

		// Insert ~ on the whole RHS: a coarse "inverted logic" bug.
		if withInvert {
			target := root
			orig := *root
			if _, isStr := orig.(*verilog.StringLit); !isStr && orig != nil {
				sites = append(sites, site{
					kind:  UnaryInsert,
					desc:  "invert RHS",
					apply: func() { *target = &verilog.Unary{Op: "~", X: orig} },
				})
			}
		}
	}

	var walkStmt func(s verilog.Stmt, inSeq bool)
	walkStmt = func(s verilog.Stmt, inSeq bool) {
		switch x := s.(type) {
		case *verilog.Block:
			for _, st := range x.Stmts {
				walkStmt(st, inSeq)
			}
		case *verilog.Assign:
			a := x
			addExprSites(&a.RHS, true)
			if inSeq {
				sites = append(sites, site{
					kind:  AssignKind,
					desc:  "toggle blocking/non-blocking",
					apply: func() { a.NonBlocking = !a.NonBlocking },
				})
			}
		case *verilog.If:
			i := x
			sites = append(sites, site{
				kind:  CondNegate,
				desc:  "negate if condition",
				apply: func() { i.Cond = &verilog.Unary{Op: "!", X: i.Cond} },
			})
			addExprSites(&i.Cond, false)
			walkStmt(x.Then, inSeq)
			walkStmt(x.Else, inSeq)
		case *verilog.Case:
			c := x
			if n := len(c.Items); n >= 2 {
				i := rng.Intn(n - 1)
				sites = append(sites, site{
					kind: CaseSwap,
					desc: fmt.Sprintf("swap case arms %d and %d", i, i+1),
					apply: func() {
						c.Items[i].Body, c.Items[i+1].Body = c.Items[i+1].Body, c.Items[i].Body
					},
				})
			}
			addExprSites(&c.Expr, false)
			for idx := range c.Items {
				for j := range c.Items[idx].Exprs {
					addExprSites(&c.Items[idx].Exprs[j], false)
				}
				walkStmt(c.Items[idx].Body, inSeq)
			}
		case *verilog.For:
			walkStmt(x.Body, inSeq)
		case *verilog.Repeat:
			walkStmt(x.Body, inSeq)
		case *verilog.Delay:
			walkStmt(x.Body, inSeq)
		}
	}

	for _, it := range m.Items {
		switch x := it.(type) {
		case *verilog.ContAssign:
			ca := x
			addExprSites(&ca.RHS, true)
		case *verilog.Always:
			seq := !x.Star && hasEdge(x.Sens)
			walkStmt(x.Body, seq)
		}
	}
	return sites
}
