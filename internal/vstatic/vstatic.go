// Package vstatic is a static-analysis pass framework over the
// verilog IR. It classifies designs before any simulation runs:
//
//   - driver analysis: multiple combinational drivers of one bit,
//     mixed combinational/sequential drivers, driven inputs;
//   - signal-dependency graph with combinational-loop detection: the
//     levelizer the batch engine schedules by (Levelize) decides whether
//     the graph is acyclic, and SCCs only name the members of a loop;
//   - width inference with truncation/extension lints;
//   - all-paths definite-assignment analysis at bit granularity
//     (latch inference), which is also the purity check the batched
//     simulator's levelized scheduler consumes;
//   - unreachable case/if branch detection via constant propagation.
//
// The module view is built by the elaborator's own module rules in
// internal/verilog: declaration widths (DeclWidth), the split of always
// blocks into combinational and sequential ((*Always).Level), and the
// sensitivity of every comb process (AutoSens, or its explicit list).
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

// proc is one process of the module view: a continuous assign or an
// always block, classified and given its sensitivity by the same
// verilog rules elaboration applies.
type proc struct {
	name string
	body verilog.Stmt
	pos  verilog.Pos
	comb bool            // level-sensitive (cont assign or always @*/@(levels))
	seq  bool            // edge-sensitive always
	sens map[string]bool // comb: the names the process wakes on
}

// hears reports whether a comb process wakes on name.
func (p *proc) hears(name string) bool { return p.sens[name] }

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

// collectDecls resolves the parameters in declaration order, then
// declares every signal with verilog.DeclWidth, folding its range over
// those parameters alone, as elaboration does. A name declared again
// (an "output q" re-declared "reg q" in the body) takes the port kind
// and must keep its width; a conflict keeps the first.
func (v *modView) collectDecls() {
	penv := &verilog.ConstEnv{Params: v.env.Params}
	for _, it := range v.m.Items {
		d, ok := it.(*verilog.Decl)
		if !ok || (d.Kind != verilog.DeclParameter && d.Kind != verilog.DeclLocalparam) {
			continue
		}
		for _, n := range d.Names {
			if val, err := verilog.Eval(d.Init, penv, 0); err == nil {
				v.env.Params[n] = val
			} else {
				v.res.add(d.Pos, SevError, CodeBadRange, n, "parameter %q is not a constant", n)
			}
		}
	}
	for _, it := range v.m.Items {
		d, ok := it.(*verilog.Decl)
		if !ok || d.Kind == verilog.DeclParameter || d.Kind == verilog.DeclLocalparam {
			continue
		}
		w, err := verilog.DeclWidth(d, penv)
		if err != nil {
			v.res.add(d.Pos, SevError, CodeBadRange, d.Names[0], "%v", err)
			w = 1
		}
		for _, n := range d.Names {
			prev, dup := v.signals[n]
			if !dup {
				v.signals[n] = &signal{width: w, kind: d.Kind, pos: d.Pos}
				continue
			}
			if prev.width != w {
				v.res.add(d.Pos, SevError, CodeBadRange, n, "conflicting widths for %s: %d vs %d", n, prev.width, w)
			}
			if d.Kind.IsPort() {
				prev.kind = d.Kind
			}
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
				body: body, pos: x.Pos, comb: true,
				sens: nameSet(verilog.AutoSens(body, false)),
			})
		case *verilog.Always:
			switch {
			case x.Level():
				p := &proc{name: "always@*", body: x.Body, pos: x.Pos, comb: true}
				if x.Star {
					p.sens = nameSet(verilog.AutoSens(x.Body, true))
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

func nameSet(names []string) map[string]bool {
	set := make(map[string]bool, len(names))
	for _, n := range names {
		set[n] = true
	}
	return set
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
		f := AnalyzeProc(p.body, p.hears, v.env)
		combs = append(combs, p)
		region.Facts = append(region.Facts, f)
		region.Sens = append(region.Sens, p.hears)
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
		// An explicit list's names; an automatic list's names were all
		// met in the body.
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
