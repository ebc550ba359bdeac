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
	"strings"

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

// site is a mutation opportunity bound to nodes of one specific module
// clone.
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

// enumerate lists every mutation site of module m. The order is
// deterministic (syntactic pre-order), which makes (seed, count)
// reproducible. It only reads m: a site's apply closure is the one
// thing that writes, and only Plan.Build runs it, on a clone. Counting
// callers pass the golden module itself, which goroutines share
// (dataset.Problem.Module), so enumerate must stay read-only.
func enumerate(m *verilog.Module, rng *rand.Rand) []site {
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
						sortStrings(cands)
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

func sortStrings(ss []string) {
	for i := 1; i < len(ss); i++ {
		for j := i; j > 0 && ss[j] < ss[j-1]; j-- {
			ss[j], ss[j-1] = ss[j-1], ss[j]
		}
	}
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

// NewPlan draws a plan with count sites using rng for all random
// choices.
func NewPlan(m *verilog.Module, rng *rand.Rand, count int) Plan {
	p := Plan{EnumSeed: rng.Int63()}
	if count <= 0 {
		return p
	}
	n := p.SiteCountIn(m)
	if n == 0 {
		return p
	}
	if count > n {
		count = n
	}
	p.Sites = append(p.Sites, rng.Perm(n)[:count]...)
	return p
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

// Build clones m and applies the plan, returning the mutant and the
// applied mutations.
func (p Plan) Build(m *verilog.Module) (*verilog.Module, []Mutation) {
	clone := verilog.CloneModule(m)
	sites := enumerate(clone, rand.New(rand.NewSource(p.EnumSeed)))
	var muts []Mutation
	for _, idx := range p.Sites {
		if idx < 0 || idx >= len(sites) {
			continue
		}
		s := sites[idx]
		s.apply()
		muts = append(muts, Mutation{Kind: s.kind, Site: idx, Desc: s.desc})
	}
	return clone, muts
}

// SiteCountIn reports the number of sites m exposes under this plan's
// seed; it reads m without cloning it.
func (p Plan) SiteCountIn(m *verilog.Module) int {
	return len(enumerate(m, rand.New(rand.NewSource(p.EnumSeed))))
}

// Mutate clones module m and applies count distinct random mutations.
// It returns the mutated clone and the list of applied mutations. If
// the module exposes fewer sites than count, all sites are applied.
func Mutate(m *verilog.Module, rng *rand.Rand, count int) (*verilog.Module, []Mutation) {
	plan := NewPlan(m, rng, count)
	return plan.Build(m)
}

// DifferenceChecker reports whether a mutant behaves differently from
// the golden module on some stimulus (implemented by higher layers with
// the simulator).
type DifferenceChecker func(mutant *verilog.Module) (bool, error)

// DifferenceResult is one candidate's verdict from a
// BatchDifferenceChecker: Differs plays the role of DifferenceChecker's
// bool, Err of its error.
type DifferenceResult struct {
	Differs bool
	Err     error
}

// BatchDifferenceChecker judges a whole wave of candidate mutants at
// once; higher layers implement it with a batch simulation of all
// candidates against the golden design. It must return one result per
// candidate, in order.
type BatchDifferenceChecker func(mutants []*verilog.Module) []DifferenceResult

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
