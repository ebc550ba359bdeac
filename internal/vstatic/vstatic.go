// Package vstatic is a static-analysis pass framework over the
// verilog IR. It classifies designs before any simulation runs:
//
//   - driver analysis: multiple combinational drivers of one bit,
//     mixed combinational/sequential drivers, driven inputs;
//   - signal-dependency graph with SCC-based combinational-loop
//     detection;
//   - width inference with truncation/extension lints;
//   - all-paths definite-assignment analysis at bit granularity
//     (latch inference), which is also the purity check the batched
//     simulator's levelized scheduler consumes;
//   - unreachable case/if branch detection via constant propagation.
//
// Constants fold, and widths are taken, with the engine's own
// expression rules in internal/verilog (Eval, SelfWidth, LHSWidth,
// CaseMatch) over one verilog.ConstEnv of the module's parameters and
// declared widths, so a verdict cannot drift from what the simulator
// does (consteval.go). A fold that fails, or a width that is not
// static, is unknown and suppresses the lint.
//
// Every finding is a position-carrying Diagnostic. The analyses are
// advisory: elaboration and grading semantics never depend on them,
// so a lint can be sharpened without shifting any recorded result.
// Two rules are load-bearing for internal/sim's batch engine: its
// run-once levelized mode is valid exactly for processes AnalyzeProc
// proves pure, and its compiler folds exactly the bodies Folds accepts
// (folds.go). Result.Levelizable reads both, and differential tests and
// FuzzAnalyze hold it equal to the engine's verdict.
package vstatic

import (
	"fmt"
	"sort"

	"correctbench/internal/logic"
	"correctbench/internal/verilog"
)

// Severity ranks diagnostics.
type Severity int

// Severity levels. Info findings are advisory style notes; Warning
// marks behavior that is almost certainly unintended (latches,
// truncation, unreachable arms); Error marks defects that make the
// design wrong or unschedulable (multiple drivers, loops, undeclared
// names).
const (
	SevInfo Severity = iota
	SevWarning
	SevError
)

func (s Severity) String() string {
	switch s {
	case SevInfo:
		return "info"
	case SevWarning:
		return "warning"
	default:
		return "error"
	}
}

// Diagnostic is one finding, anchored to a source position.
type Diagnostic struct {
	Pos      verilog.Pos `json:"pos"`
	Severity Severity    `json:"-"`
	Sev      string      `json:"severity"`
	Code     string      `json:"code"`
	Signal   string      `json:"signal,omitempty"`
	Msg      string      `json:"msg"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: [%s] %s", d.Pos, d.Severity, d.Code, d.Msg)
}

// Diagnostic codes produced by the module passes (purity codes such
// as CodeLatch are shared with AnalyzeProc).
const (
	CodeUndeclared  = "undeclared"
	CodeMultiDriver = "multi-driver"
	CodeMixedDriver = "mixed-driver"
	CodeDriveInput  = "drive-input"
	CodeCombLoop    = "comb-loop"
	CodeWidthTrunc  = "width-trunc"
	CodeWidthExt    = "width-ext"
	CodeConstCond   = "const-cond"
	CodeUnreachable = "unreachable-arm"
	CodeDupArm      = "dup-arm"
	CodeBadRange    = "bad-range"
)

// Result is the full analysis of one module.
type Result struct {
	Module string       `json:"module"`
	Diags  []Diagnostic `json:"diags"`
	// CombProcs counts combinational processes (continuous assigns
	// and level-sensitive always blocks); StaticCombProcs counts the
	// subset proved pure, i.e. schedulable run-once.
	CombProcs       int `json:"comb_procs"`
	StaticCombProcs int `json:"static_comb_procs"`
	// Levelizable reports whether the whole combinational region is
	// statically schedulable: every process pure, every bit singly
	// driven, dependency graph acyclic, and every comb and sequential
	// body one Folds accepts (the simulator runs any other body on the
	// interpreter's rules, event-driven). It equals the batched
	// simulator's verdict for the same module.
	Levelizable bool `json:"levelizable"`
	// Hierarchical marks modules with instances; their submodule
	// regions are not analyzed here (the simulator flattens them), so
	// Levelizable covers only this module's own processes.
	Hierarchical bool `json:"hierarchical"`
}

// Count returns the number of diagnostics at or above min.
func (r *Result) Count(min Severity) int {
	n := 0
	for _, d := range r.Diags {
		if d.Severity >= min {
			n++
		}
	}
	return n
}

func (r *Result) add(pos verilog.Pos, sev Severity, code, signal, format string, args ...interface{}) {
	r.Diags = append(r.Diags, Diagnostic{
		Pos: pos, Severity: sev, Sev: sev.String(), Code: code, Signal: signal,
		Msg: fmt.Sprintf(format, args...),
	})
}

// AnalyzeSource parses src and analyzes it with AnalyzeFile. A parse
// failure is an error.
func AnalyzeSource(src, top string) ([]*Result, error) {
	f, err := verilog.Parse(src)
	if err != nil {
		return nil, err
	}
	return AnalyzeFile(f, top)
}

// AnalyzeFile analyzes the modules of f: all of them when top is
// empty, else just top. A missing top is an error. f is only read.
func AnalyzeFile(f *verilog.SourceFile, top string) ([]*Result, error) {
	if top != "" {
		m := f.Module(top)
		if m == nil {
			return nil, fmt.Errorf("vstatic: no module %q in source", top)
		}
		return []*Result{AnalyzeModule(m)}, nil
	}
	out := make([]*Result, 0, len(f.Modules))
	for _, m := range f.Modules {
		out = append(out, AnalyzeModule(m))
	}
	return out, nil
}

// signal is one declared name of the module under analysis.
type signal struct {
	width int
	kind  verilog.DeclKind
	pos   verilog.Pos
}

// proc is one process of the module view: continuous assigns and
// always blocks, normalized the way elaboration normalizes them.
type proc struct {
	name string
	body verilog.Stmt
	pos  verilog.Pos
	comb bool            // level-sensitive (cont assign or always @*/@(levels))
	seq  bool            // edge-sensitive always
	sens map[string]bool // nil for auto sensitivity (@(*) and cont assigns)
	star bool            // auto sensitivity: reads minus assign targets
}

// modView is the elaboration-shaped view of a module the passes run
// over.
type modView struct {
	m       *verilog.Module
	signals map[string]*signal
	// env folds constants: the parameters resolved so far and the
	// declared widths (width).
	env   verilog.ConstEnv
	procs []*proc
	res   *Result
}

func (v *modView) width(name string) (int, bool) {
	if s, ok := v.signals[name]; ok {
		return s.width, true
	}
	return 0, false
}

// AnalyzeModule runs every pass over m and returns the collected
// diagnostics and classification. The analysis never fails: broken
// input yields error-severity diagnostics instead.
func AnalyzeModule(m *verilog.Module) *Result {
	v := &modView{
		m:       m,
		signals: map[string]*signal{},
		res:     &Result{Module: m.Name},
	}
	v.env = verilog.ConstEnv{Params: map[string]logic.Vector{}, Width: v.width}
	v.collectDecls()
	v.collectProcs()
	v.checkUndeclared()
	combs, region := v.analyzeCombProcs()
	v.driverPass(combs, region)
	v.loopPass(combs, region)
	v.widthPass()
	v.constPass()
	v.res.Levelizable = region.Levelizable()
	for _, p := range v.procs {
		if (p.comb || p.seq) && !Folds(p.body, v.env) {
			v.res.Levelizable = false // the engine runs p's body event-driven
		}
	}
	sortDiags(v.res.Diags)
	return v.res
}

func sortDiags(ds []Diagnostic) {
	sort.SliceStable(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Col != b.Pos.Col {
			return a.Pos.Col < b.Pos.Col
		}
		if a.Code != b.Code {
			return a.Code < b.Code
		}
		return a.Msg < b.Msg
	})
}

// collectDecls resolves parameters in declaration order and records
// every signal's width, mirroring the elaborator's rules ([msb:0]
// ranges, integers as 32-bit).
func (v *modView) collectDecls() {
	for _, it := range v.m.Items {
		d, ok := it.(*verilog.Decl)
		if !ok {
			continue
		}
		if d.Kind == verilog.DeclParameter || d.Kind == verilog.DeclLocalparam {
			for _, n := range d.Names {
				if val, err := verilog.Eval(d.Init, &v.env, 0); err == nil {
					v.env.Params[n] = val
				} else {
					v.res.add(d.Pos, SevError, CodeBadRange, n, "parameter %q is not a constant", n)
				}
			}
			continue
		}
		w := 1
		if d.Kind == verilog.DeclInteger {
			w = 32
		}
		if d.Range != nil {
			msb, ok1 := constIndex(d.Range.MSB, &v.env)
			lsb, ok2 := constIndex(d.Range.LSB, &v.env)
			switch {
			case !ok1 || !ok2:
				v.res.add(d.Pos, SevError, CodeBadRange, d.Names[0], "non-constant range bounds")
			case lsb != 0:
				v.res.add(d.Pos, SevError, CodeBadRange, d.Names[0], "only [msb:0] ranges are supported (got lsb=%d)", lsb)
			case msb >= verilog.MaxVectorWidth:
				v.res.add(d.Pos, SevError, CodeBadRange, d.Names[0], "vector too wide (%d bits)", msb+1)
			default:
				w = msb + 1
			}
		}
		for _, n := range d.Names {
			if prev, dup := v.signals[n]; dup {
				// "output reg q" style re-declarations share a name;
				// keep the port kind, widen to the wider range.
				if w > prev.width {
					prev.width = w
				}
				if d.Kind.IsPort() {
					prev.kind = d.Kind
				}
				continue
			}
			v.signals[n] = &signal{width: w, kind: d.Kind, pos: d.Pos}
		}
	}
}

func (v *modView) collectProcs() {
	for _, it := range v.m.Items {
		switch x := it.(type) {
		case *verilog.ContAssign:
			body := &verilog.Assign{LHS: x.LHS, RHS: x.RHS, Pos: x.Pos}
			v.procs = append(v.procs, &proc{
				name: "assign " + verilog.ExprString(x.LHS),
				body: body, pos: x.Pos, comb: true, star: false,
				sens: nil, // continuous assigns are sensitive to every read
			})
		case *verilog.Always:
			switch {
			case x.Star || allLevelSens(x.Sens):
				p := &proc{name: "always@*", body: x.Body, pos: x.Pos, comb: true}
				if x.Star {
					p.star = true
				} else {
					p.sens = map[string]bool{}
					for _, se := range x.Sens {
						p.sens[se.Sig] = true
					}
				}
				v.procs = append(v.procs, p)
			case len(x.Sens) == 0:
				// Timed "always": not part of the combinational region.
			default:
				v.procs = append(v.procs, &proc{name: "always@edge", body: x.Body, pos: x.Pos, seq: true})
			}
		case *verilog.Instance:
			v.res.Hierarchical = true
		}
	}
}

func allLevelSens(sens []verilog.SensItem) bool {
	if len(sens) == 0 {
		return false
	}
	for _, s := range sens {
		if s.Edge != verilog.EdgeNone {
			return false
		}
	}
	return true
}

// sensFunc builds the sensitivity predicate elaboration would give
// the process: continuous assigns hear every read; @(*) hears reads
// minus assign targets; explicit lists hear exactly the listed names.
func (v *modView) sensFunc(p *proc) func(string) bool {
	if p.sens != nil {
		return func(n string) bool { return p.sens[n] }
	}
	if !p.star {
		return func(string) bool { return true }
	}
	targets := map[string]bool{}
	verilog.WalkStmts(p.body, func(s verilog.Stmt) {
		if a, ok := s.(*verilog.Assign); ok {
			for _, n := range verilog.LHSTargets(a.LHS) {
				targets[n] = true
			}
		}
	})
	return func(n string) bool { return !targets[n] }
}

// analyzeCombProcs runs the purity analysis over every combinational
// process, emitting diagnostics for failures and counting coverage.
// It returns the combinational processes in item order and the Region
// the driver, loop and levelizability verdicts derive from.
func (v *modView) analyzeCombProcs() ([]*proc, Region) {
	var combs []*proc
	var region Region
	for _, p := range v.procs {
		if !p.comb {
			continue
		}
		v.res.CombProcs++
		f := AnalyzeProc(p.body, v.sensFunc(p), v.env)
		combs = append(combs, p)
		region.Facts = append(region.Facts, f)
		region.Sens = append(region.Sens, v.sensFunc(p))
		if f.Err == nil {
			v.res.StaticCombProcs++
			continue
		}
		code := CodeUnsupported
		if pe, ok := f.Err.(*ProcError); ok {
			code = pe.Code
		}
		v.res.add(p.pos, SevWarning, code, "", "%s: %v", p.name, f.Err)
	}
	return combs, region
}

// walkAllExprs visits every expression of a statement tree, including
// condition, selector, bound and argument positions.
func walkAllExprs(body verilog.Stmt, f func(verilog.Expr)) {
	verilog.WalkStmts(body, func(s verilog.Stmt) {
		switch x := s.(type) {
		case *verilog.Assign:
			f(x.LHS)
			f(x.RHS)
		case *verilog.If:
			f(x.Cond)
		case *verilog.Case:
			f(x.Expr)
			for _, it := range x.Items {
				for _, e := range it.Exprs {
					f(e)
				}
			}
		case *verilog.For:
			f(x.Cond)
		case *verilog.Repeat:
			f(x.Count)
		case *verilog.Delay:
			f(x.Amount)
		case *verilog.SysCall:
			for _, a := range x.Args {
				f(a)
			}
		}
	})
}

// checkUndeclared flags identifier uses that resolve to neither a
// signal nor a parameter. Hierarchical modules skip the check for
// instance connections (those resolve in the child's scope).
func (v *modView) checkUndeclared() {
	seen := map[string]bool{}
	flag := func(pos verilog.Pos, name string) {
		if seen[name] {
			return
		}
		if _, ok := v.signals[name]; ok {
			return
		}
		if _, ok := v.env.Params[name]; ok {
			return
		}
		seen[name] = true
		v.res.add(pos, SevError, CodeUndeclared, name, "undeclared identifier %q", name)
	}
	checkExpr := func(e verilog.Expr) {
		verilog.WalkExprs(e, func(x verilog.Expr) {
			if id, ok := x.(*verilog.Ident); ok {
				flag(id.Pos, id.Name)
			}
		})
	}
	for _, n := range v.m.PortOrder {
		flag(v.m.Pos, n)
	}
	for _, p := range v.procs {
		walkAllExprs(p.body, checkExpr)
		if p.sens != nil {
			for n := range p.sens { //detlint:allow each name is flagged at p.pos once, and the diagnostics are sorted
				flag(p.pos, n)
			}
		}
	}
	for _, it := range v.m.Items {
		if a, ok := it.(*verilog.Always); ok && !a.Star {
			for _, se := range a.Sens {
				if se.Edge != verilog.EdgeNone {
					flag(a.Pos, se.Sig)
				}
			}
		}
	}
}
