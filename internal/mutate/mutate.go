// Package mutate derives faulty variants of Verilog modules. It serves
// three roles in the CorrectBench reproduction:
//
//   - it builds the 10 golden-RTL mutants that AutoEval's Eval2 uses as
//     devices under test,
//   - it models the functional mistakes of LLM-generated artifacts: the
//     validator's 20 "imperfect" RTL designs and the faults inside
//     generated checkers are golden sources with a sampled number of
//     AST mutations applied, and
//   - its token-level syntax corruptor models LLM syntax errors
//     (Eval0/"Failed" grade artifacts).
//
// Mutations are applied at AST level, so every functional mutant stays
// parseable; only CorruptSyntax produces invalid text.
package mutate

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"

	"correctbench/internal/logic"
	"correctbench/internal/verilog"
)

// Kind names a mutation operator class.
type Kind string

// Mutation operator classes.
const (
	OpSwap       Kind = "op-swap"       // binary operator replaced by a near miss
	ConstPerturb Kind = "const-perturb" // literal value off by one / bit flip
	CondNegate   Kind = "cond-negate"   // if condition logically negated
	TernarySwap  Kind = "ternary-swap"  // ?: branches exchanged
	UnaryDrop    Kind = "unary-drop"    // ~ or ! removed
	UnaryInsert  Kind = "unary-insert"  // ~ inserted on an assignment RHS
	CaseSwap     Kind = "case-swap"     // two case arms exchanged
	AssignKind   Kind = "assign-kind"   // blocking <-> non-blocking
	IdentSwap    Kind = "ident-swap"    // same-width signal references exchanged
)

// Mutation records one applied mutation.
type Mutation struct {
	Kind Kind
	Site int    // site index within the enumeration
	Desc string // human-readable description
}

func (m Mutation) String() string { return fmt.Sprintf("%s@%d(%s)", m.Kind, m.Site, m.Desc) }

// site is a mutation opportunity bound to nodes of the copy that one
// enumerate call built.
type site struct {
	kind  Kind
	desc  string
	apply func()
}

// opSwapTable maps binary operators to their near-miss replacements.
var opSwapTable = map[string][]string{
	"+":   {"-"},
	"-":   {"+"},
	"*":   {"+"},
	"&":   {"|", "^"},
	"|":   {"&", "^"},
	"^":   {"&", "~^"},
	"~^":  {"^"},
	"^~":  {"^"},
	"==":  {"!="},
	"!=":  {"=="},
	"<":   {"<=", ">"},
	"<=":  {"<", ">="},
	">":   {">=", "<"},
	">=":  {">", "<="},
	"<<":  {">>"},
	">>":  {"<<", ">>>"},
	">>>": {">>"},
	"&&":  {"||"},
	"||":  {"&&"},
}

// enumerate copies module m while it lists every mutation site, and
// returns the copy with its sites. The order is deterministic
// (syntactic pre-order), which makes (seed, count) reproducible.
//
// Every node the walk enters is first replaced in its parent's slot by
// a shallow copy (dup), and every slice it indexes is cloned, so sites
// bind to the copy and a site's apply closure writes only there. Nodes
// the walk never enters (declarations, instances, For headers,
// sensitivity lists, assignment targets) stay shared with m, so
// nothing may write to a built module either. m itself is only read:
// goroutines share golden modules (dataset.Problem.Module).
func enumerate(m *verilog.Module, rng *rand.Rand) (*verilog.Module, []site) {
	var sites []site
	widths := declWidths(m)

	addExprSites := func(root *verilog.Expr, withInvert bool) {
		var walk func(ep *verilog.Expr)
		walk = func(ep *verilog.Expr) {
			switch x := (*ep).(type) {
			case nil:
				return
			case *verilog.Binary:
				x = dup(ep, x)
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
				x = dup(ep, x)
				var inner verilog.Expr
				if x.Op == "~" || x.Op == "!" {
					target := ep
					sites = append(sites, site{
						kind:  UnaryDrop,
						desc:  "drop " + x.Op,
						apply: func() { *target = inner },
					})
				}
				walk(&x.X)
				inner = x.X // bound after the walk copied it, so faults inside it survive
			case *verilog.Ternary:
				x = dup(ep, x)
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
				n := dup(ep, x)
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
				x = dup(ep, x)
				x.Parts = slices.Clone(x.Parts)
				for i := range x.Parts {
					walk(&x.Parts[i])
				}
			case *verilog.Repl:
				x = dup(ep, x)
				walk(&x.Value)
			case *verilog.Index:
				x = dup(ep, x)
				walk(&x.Index)
			case *verilog.PartSelect:
				x = dup(ep, x)
				walk(&x.MSB)
				walk(&x.LSB)
			case *verilog.Ident:
				// Ident swap: replace with another same-width signal.
				if w, ok := widths[x.Name]; ok {
					var cands []string
					for n, nw := range widths { //detlint:allow a filtered collect; the candidates are sorted before use
						if n != x.Name && nw == w {
							cands = append(cands, n)
						}
					}
					if len(cands) > 0 {
						slices.Sort(cands)
						repl := cands[rng.Intn(len(cands))]
						id := dup(ep, x)
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

	var walkStmt func(sp *verilog.Stmt, inSeq bool)
	walkStmt = func(sp *verilog.Stmt, inSeq bool) {
		switch x := (*sp).(type) {
		case *verilog.Block:
			x = dup(sp, x)
			x.Stmts = slices.Clone(x.Stmts)
			for i := range x.Stmts {
				walkStmt(&x.Stmts[i], inSeq)
			}
		case *verilog.Assign:
			a := dup(sp, x)
			addExprSites(&a.RHS, true)
			if inSeq {
				sites = append(sites, site{
					kind:  AssignKind,
					desc:  "toggle blocking/non-blocking",
					apply: func() { a.NonBlocking = !a.NonBlocking },
				})
			}
		case *verilog.If:
			i := dup(sp, x)
			sites = append(sites, site{
				kind:  CondNegate,
				desc:  "negate if condition",
				apply: func() { i.Cond = &verilog.Unary{Op: "!", X: i.Cond} },
			})
			addExprSites(&i.Cond, false)
			walkStmt(&i.Then, inSeq)
			walkStmt(&i.Else, inSeq)
		case *verilog.Case:
			c := dup(sp, x)
			c.Items = slices.Clone(c.Items)
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
				it := &c.Items[idx]
				it.Exprs = slices.Clone(it.Exprs)
				for j := range it.Exprs {
					addExprSites(&it.Exprs[j], false)
				}
				walkStmt(&it.Body, inSeq)
			}
		case *verilog.For:
			x = dup(sp, x)
			walkStmt(&x.Body, inSeq)
		case *verilog.Repeat:
			x = dup(sp, x)
			walkStmt(&x.Body, inSeq)
		case *verilog.Delay:
			x = dup(sp, x)
			walkStmt(&x.Body, inSeq)
		}
	}

	mut := *m
	mut.Items = slices.Clone(m.Items)
	for i, it := range mut.Items {
		switch x := it.(type) {
		case *verilog.ContAssign:
			ca := dup(&mut.Items[i], x)
			addExprSites(&ca.RHS, true)
		case *verilog.Always:
			x = dup(&mut.Items[i], x)
			seq := !x.Star && hasEdge(x.Sens)
			walkStmt(&x.Body, seq)
		}
	}
	return &mut, sites
}

// dup puts a shallow copy of node x into slot, which holds x, and
// returns the copy.
func dup[S any, T any](slot *S, x *T) *T {
	c := *x
	*slot = any(&c).(S)
	return &c
}

func hasEdge(sens []verilog.SensItem) bool {
	for _, s := range sens {
		if s.Edge != verilog.EdgeNone {
			return true
		}
	}
	return false
}

// declWidths maps declared signal names to widths, for same-width ident
// swaps. Non-literal ranges are skipped.
func declWidths(m *verilog.Module) map[string]int {
	out := map[string]int{}
	for _, it := range m.Items {
		d, ok := it.(*verilog.Decl)
		if !ok || d.Kind == verilog.DeclParameter || d.Kind == verilog.DeclLocalparam {
			continue
		}
		w := 1
		if d.Range != nil {
			msb, ok1 := d.Range.MSB.(*verilog.Number)
			lsb, ok2 := d.Range.LSB.(*verilog.Number)
			if !ok1 || !ok2 {
				continue
			}
			mv, okm := msb.Val.Uint64()
			lv, okl := lsb.Val.Uint64()
			if !okm || !okl || lv != 0 {
				continue
			}
			w = int(mv) + 1
		}
		for _, n := range d.Names {
			out[n] = w
		}
	}
	return out
}

// Plan is a reproducible mutation recipe: an enumeration seed (which
// fixes the per-site random choices such as replacement operators) and
// the site indices to apply. Removing indices from Sites and rebuilding
// models a repair of those specific faults, which is how the corrector
// model applies fixes.
type Plan struct {
	EnumSeed int64
	Sites    []int
}

// Without returns a copy of the plan with the given site removed.
func (p Plan) Without(siteIdx int) Plan {
	out := Plan{EnumSeed: p.EnumSeed}
	for _, s := range p.Sites {
		if s != siteIdx {
			out.Sites = append(out.Sites, s)
		}
	}
	return out
}

// With returns a copy of the plan with the given site added (if new).
func (p Plan) With(siteIdx int) Plan {
	out := Plan{EnumSeed: p.EnumSeed, Sites: append([]int(nil), p.Sites...)}
	for _, s := range out.Sites {
		if s == siteIdx {
			return out
		}
	}
	out.Sites = append(out.Sites, siteIdx)
	return out
}

// Build applies the plan to a copy of m, returning the mutant, the
// applied mutations and the number of sites m exposes under the plan's
// seed. The mutant shares every node no site reaches with m, so, like
// m, it is read-only.
func (p Plan) Build(m *verilog.Module) (*verilog.Module, []Mutation, int) {
	mut, sites := p.enumerate(m)
	return mut, p.apply(sites), len(sites)
}

// enumRands pools the enumeration's random sources, so that a Build
// re-seeds one instead of allocating a fresh source (several KB) each
// time. Seeding restarts the stream, which is then the one a new
// source of that seed draws. The enumeration makes every draw before it
// returns — no site closure keeps the source — so it goes back to the
// pool at once.
var enumRands = sync.Pool{New: func() any { return rand.New(rand.NewSource(0)) }}

func (p Plan) enumerate(m *verilog.Module) (*verilog.Module, []site) {
	rng := enumRands.Get().(*rand.Rand)
	defer enumRands.Put(rng)
	rng.Seed(p.EnumSeed)
	return enumerate(m, rng)
}

// apply runs the plan's sites in order, skipping indices out of range,
// and reports the mutations it applied.
func (p Plan) apply(sites []site) []Mutation {
	var muts []Mutation
	for _, idx := range p.Sites {
		if idx < 0 || idx >= len(sites) {
			continue
		}
		s := sites[idx]
		s.apply()
		muts = append(muts, Mutation{Kind: s.kind, Site: idx, Desc: s.desc})
	}
	return muts
}

// Mutate draws a plan of count distinct random mutations over m and
// applies it to a copy of m, in one enumeration. It returns the mutant,
// the applied mutations and the plan, whose Build rebuilds the same
// mutant. If the module exposes fewer sites than count, all sites are
// applied.
func Mutate(m *verilog.Module, rng *rand.Rand, count int) (*verilog.Module, []Mutation, Plan) {
	p := Plan{EnumSeed: rng.Int63()}
	mut, sites := p.enumerate(m)
	if n := len(sites); n > 0 && count > 0 {
		p.Sites = rng.Perm(n)[:min(count, n)]
	}
	return mut, p.apply(sites), p
}

// ---- syntax corruption ----

// CorruptSyntax damages source text so that it no longer parses,
// modelling LLM syntax errors. The kind of damage is sampled from
// realistic classes: dropped semicolon or parenthesis, misspelled
// keyword, truncated tail, unbalanced begin/end.
func CorruptSyntax(src string, rng *rand.Rand) string {
	for attempt := 0; attempt < 8; attempt++ {
		out := corruptOnce(src, rng)
		if _, err := verilog.Parse(out); err != nil {
			return out
		}
	}
	// Guaranteed fallback.
	return src + "\nendmodule garbage ((("
}

func corruptOnce(src string, rng *rand.Rand) string {
	switch rng.Intn(5) {
	case 0: // drop a semicolon
		return dropNth(src, ";", rng)
	case 1: // drop a closing paren
		return dropNth(src, ")", rng)
	case 2: // misspell a keyword
		for _, kw := range []string{"endmodule", "endcase", "begin", "end", "assign", "always"} {
			if strings.Contains(src, kw) {
				return strings.Replace(src, kw, kw[:len(kw)-1]+"_", 1)
			}
		}
		return src[:len(src)/2]
	case 3: // truncate the tail
		cut := len(src)/2 + rng.Intn(len(src)/2)
		return src[:cut]
	default: // insert stray token
		pos := rng.Intn(len(src))
		return src[:pos] + " @@ " + src[pos:]
	}
}

func dropNth(src, tok string, rng *rand.Rand) string {
	count := strings.Count(src, tok)
	if count == 0 {
		return src[:len(src)/2]
	}
	n := rng.Intn(count)
	idx := 0
	for i := 0; i <= n; i++ {
		next := strings.Index(src[idx:], tok)
		if next < 0 {
			break
		}
		idx += next
		if i < n {
			idx += len(tok)
		}
	}
	return src[:idx] + src[idx+len(tok):]
}
