// Package sim elaborates parsed Verilog into a flat design and
// simulates it with four-state semantics. Together with internal/verilog
// it is this repository's stand-in for Icarus Verilog: parse errors and
// elaboration errors model "syntax failed" (Eval0).
//
// There are two engines over one elaborated Design:
//
//   - the batch engine (CompileBatch / BatchInstance) places a base
//     design and N variants on the lanes of structure-of-arrays
//     programs and advances every lane in lockstep under the cycle API
//     (SetInput / Settle / Tick). Testbench validation, RS-matrix construction and
//     mutant evaluation run on it; a single DUT is a one-lane batch.
//     Every design compiles: a body the compiler cannot fold runs the
//     interpreter's own statement rules on its lane.
//   - the interpreter (Instance) walks the AST. It is the reference
//     oracle the batch engine is tested against and the only engine
//     with event time: the timed scheduler (Run) executes initial
//     blocks, delay-driven always blocks and $display for cmd/vsim.
package sim

import (
	"context"
	"fmt"
	"sort"

	"correctbench/internal/logic"
	"correctbench/internal/obs"
	"correctbench/internal/verilog"
)

// ElabError is an elaboration (semantic) error.
type ElabError struct {
	Pos verilog.Pos
	Msg string
}

func (e *ElabError) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

func elabErrf(pos verilog.Pos, format string, args ...interface{}) error {
	return &ElabError{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

// PortDir is a port direction in the elaborated design.
type PortDir int

// Port directions.
const (
	In PortDir = iota
	Out
	InOut
)

func (d PortDir) String() string {
	switch d {
	case In:
		return "input"
	case Out:
		return "output"
	default:
		return "inout"
	}
}

// Port describes a top-level port of the elaborated design.
type Port struct {
	Name  string
	Dir   PortDir
	Width int
}

// Signal is a named state element (net, variable or flattened child
// signal).
type Signal struct {
	Name  string
	Width int
	IsVar bool // reg/integer (procedurally assigned)
}

// ProcKind classifies processes.
type ProcKind int

// Process kinds.
const (
	ProcComb    ProcKind = iota // continuous assign or always @(*) / level list
	ProcSeq                     // edge-triggered always
	ProcInitial                 // initial block (timed scheduler only)
	ProcTimed                   // always block with no event control (delay loop)
)

// SensEntry is an elaborated sensitivity entry.
type SensEntry struct {
	Edge verilog.EdgeKind
	Sig  string
}

// Process is an executable process of the flat design.
type Process struct {
	Kind ProcKind
	Sens []SensEntry // seq: edge list; comb: read set
	Body verilog.Stmt
	Name string // diagnostic label

	// edgeSens is Sens resolved to dense edge-watch indices, filled
	// by Design.finalize.
	edgeSens []edgeSens
}

// Design is an elaborated, flattened module hierarchy.
type Design struct {
	Top     string
	Ports   []Port
	Signals map[string]*Signal
	Order   []string // deterministic signal order
	Procs   []*Process
	Params  map[string]logic.Vector // resolved constants (top level)

	// Slot resolution and process indexes, built by finalize: every
	// signal name maps to a dense slot, and the scheduling structures
	// the per-step hot path needs are precomputed here instead of per
	// Instance.
	slotOf     map[string]int
	slotWidths []int      // per slot
	wideOf     []int32    // slot -> rank among the slots wider than 64 bits, -1 for the rest
	nWide      int        // slots wider than 64 bits
	combProcs  []*Process // ProcComb subset, design order
	seqProcs   []*Process // ProcSeq subset, design order
	combBySlot [][]int32  // slot -> ordinals into combProcs
	edgeSlots  []int32    // slots watched by seq sensitivity lists
}

// Port returns the named top-level port, or nil.
func (d *Design) Port(name string) *Port {
	for i := range d.Ports {
		if d.Ports[i].Name == name {
			return &d.Ports[i]
		}
	}
	return nil
}

// SlotOf resolves a signal name to the slot index an Instance of the
// design, or a BatchInstance of a program compiled over it, reads the
// signal by.
func (d *Design) SlotOf(name string) (int, bool) {
	slot, ok := d.slotOf[name]
	return slot, ok
}

// ElaborateContext flattens the hierarchy rooted at module top. When
// ctx carries an obs collector (obs.WithCollector), the hierarchy
// flattening records a sim_elaborate span and the finalize step
// (slot resolution, scheduling structures) a sim_compile span.
// Without a collector the timing hooks are no-ops.
func ElaborateContext(ctx context.Context, file *verilog.SourceFile, top string) (*Design, error) {
	endElab := obs.Time(ctx, obs.PhaseElaborate)
	mod := file.Module(top)
	if mod == nil {
		endElab()
		return nil, elabErrf(verilog.Pos{Line: 1, Col: 1}, "top module %q not found", top)
	}
	d := &Design{
		Top:     top,
		Signals: map[string]*Signal{},
		Params:  map[string]logic.Vector{},
	}
	e := &elaborator{file: file, design: d, depth: 0}
	if err := e.module(mod, "", nil, true); err != nil {
		endElab()
		return nil, err
	}
	sort.Strings(d.Order)
	endElab()
	endCompile := obs.Time(ctx, obs.PhaseCompile)
	d.finalize()
	endCompile()
	return d, nil
}

// ElaborateSourceContext parses and elaborates in one step, with the
// phase timing of ElaborateContext.
func ElaborateSourceContext(ctx context.Context, src, top string) (*Design, error) {
	f, err := verilog.Parse(src)
	if err != nil {
		return nil, err
	}
	return ElaborateContext(ctx, f, top)
}

type elaborator struct {
	file   *verilog.SourceFile
	design *Design
	depth  int
}

const maxDepth = 16

// module elaborates one module under the given instance prefix.
// paramOverrides maps parameter names to override expressions already
// evaluated in the parent scope.
func (e *elaborator) module(m *verilog.Module, prefix string, paramOverrides map[string]logic.Vector, isTop bool) error {
	if e.depth > maxDepth {
		return elabErrf(m.Pos, "instantiation depth exceeds %d (recursive hierarchy?)", maxDepth)
	}

	// Pass 1: resolve parameters in declaration order.
	params := map[string]logic.Vector{}
	for _, it := range m.Items {
		d, ok := it.(*verilog.Decl)
		if !ok || (d.Kind != verilog.DeclParameter && d.Kind != verilog.DeclLocalparam) {
			continue
		}
		name := d.Names[0]
		if ov, ok := paramOverrides[name]; ok && d.Kind == verilog.DeclParameter {
			params[name] = ov
			continue
		}
		v, err := e.constEval(d.Init, params, d.Pos)
		if err != nil {
			return err
		}
		params[name] = v
	}
	if isTop {
		e.design.Params = params
	}

	// Pass 2: declare signals.
	penv := &verilog.ConstEnv{Params: params}
	for _, it := range m.Items {
		d, ok := it.(*verilog.Decl)
		if !ok || d.Kind == verilog.DeclParameter || d.Kind == verilog.DeclLocalparam {
			continue
		}
		width, err := verilog.DeclWidth(d, penv)
		if err != nil {
			return &ElabError{Pos: d.Pos, Msg: err.Error()}
		}
		isVar := d.Kind == verilog.DeclReg || d.Kind == verilog.DeclInteger || d.IsReg
		for _, n := range d.Names {
			full := prefix + n
			if prev, exists := e.design.Signals[full]; exists {
				// Merging is allowed when a port is re-declared as
				// reg/wire in the body (classic style); widths must
				// agree.
				if prev.Width != width {
					return elabErrf(d.Pos, "conflicting widths for %s: %d vs %d", n, prev.Width, width)
				}
				prev.IsVar = prev.IsVar || isVar
				continue
			}
			e.design.Signals[full] = &Signal{Name: full, Width: width, IsVar: isVar}
			e.design.Order = append(e.design.Order, full)
			if isTop && d.Kind.IsPort() {
				dir := In
				switch d.Kind {
				case verilog.DeclOutput:
					dir = Out
				case verilog.DeclInout:
					dir = InOut
				}
				e.design.Ports = append(e.design.Ports, Port{Name: n, Dir: dir, Width: width})
			}
		}
	}

	// Classic-style headers declare ports only by name; make sure every
	// header port ended up with a declaration.
	for _, n := range m.PortOrder {
		if e.design.Signals[prefix+n] == nil {
			return elabErrf(m.Pos, "port %s of module %s has no declaration", n, m.Name)
		}
	}

	// Pass 3: processes and instances.
	sub := &scopedElab{e: e, prefix: prefix, params: params, module: m}
	for _, it := range m.Items {
		switch x := it.(type) {
		case *verilog.ContAssign:
			if err := sub.contAssign(x); err != nil {
				return err
			}
		case *verilog.Always:
			if err := sub.always(x); err != nil {
				return err
			}
		case *verilog.Initial:
			body, err := sub.rewriteStmt(x.Body)
			if err != nil {
				return err
			}
			e.design.Procs = append(e.design.Procs, &Process{
				Kind: ProcInitial, Body: body, Name: prefix + "initial",
			})
		case *verilog.Instance:
			if err := sub.instance(x); err != nil {
				return err
			}
		}
	}
	return nil
}

// scopedElab carries per-module state while rewriting bodies into the
// flat namespace.
type scopedElab struct {
	e      *elaborator
	prefix string
	params map[string]logic.Vector
	module *verilog.Module
}

func (s *scopedElab) contAssign(ca *verilog.ContAssign) error {
	lhs, err := s.rewriteExpr(ca.LHS)
	if err != nil {
		return err
	}
	rhs, err := s.rewriteExpr(ca.RHS)
	if err != nil {
		return err
	}
	if err := s.checkLValue(lhs, ca.Pos, false); err != nil {
		return err
	}
	body := &verilog.Assign{LHS: lhs, RHS: rhs, Pos: ca.Pos}
	s.e.design.Procs = append(s.e.design.Procs, &Process{
		Kind: ProcComb,
		Sens: levelSens(verilog.AutoSens(body, false)),
		Body: body,
		Name: s.prefix + "assign " + verilog.ExprString(lhs),
	})
	return nil
}

func (s *scopedElab) always(a *verilog.Always) error {
	body, err := s.rewriteStmt(a.Body)
	if err != nil {
		return err
	}
	switch {
	case a.Level():
		p := &Process{Kind: ProcComb, Body: body, Name: s.prefix + "always@*"}
		if a.Star {
			p.Sens = levelSens(verilog.AutoSens(body, true))
		} else {
			for _, se := range a.Sens {
				p.Sens = append(p.Sens, SensEntry{Edge: verilog.EdgeNone, Sig: s.prefix + se.Sig})
			}
		}
		s.e.design.Procs = append(s.e.design.Procs, p)
	case len(a.Sens) == 0:
		// "always" with no event control: legal only with a delay body
		// (timed scheduler).
		if _, ok := firstDelay(body); !ok {
			return elabErrf(a.Pos, "always block without event control or delay")
		}
		s.e.design.Procs = append(s.e.design.Procs, &Process{
			Kind: ProcTimed, Body: body, Name: s.prefix + "always#",
		})
	default:
		p := &Process{Kind: ProcSeq, Body: body, Name: s.prefix + "always@edge"}
		for _, se := range a.Sens {
			if se.Edge == verilog.EdgeNone {
				return elabErrf(a.Pos, "mixed edge and level sensitivity is not supported")
			}
			sig := s.prefix + se.Sig
			if s.e.design.Signals[sig] == nil {
				return elabErrf(a.Pos, "unknown signal %s in sensitivity list", se.Sig)
			}
			p.Sens = append(p.Sens, SensEntry{Edge: se.Edge, Sig: sig})
		}
		s.e.design.Procs = append(s.e.design.Procs, p)
	}
	return nil
}

// levelSens is the sensitivity list of level entries on names.
func levelSens(names []string) []SensEntry {
	out := make([]SensEntry, len(names))
	for i, n := range names {
		out[i] = SensEntry{Edge: verilog.EdgeNone, Sig: n}
	}
	return out
}

func firstDelay(s verilog.Stmt) (*verilog.Delay, bool) {
	switch x := s.(type) {
	case *verilog.Delay:
		return x, true
	case *verilog.Block:
		if len(x.Stmts) > 0 {
			return firstDelay(x.Stmts[0])
		}
	}
	return nil, false
}

func (s *scopedElab) instance(inst *verilog.Instance) error {
	child := s.e.file.Module(inst.Module)
	if child == nil {
		return elabErrf(inst.Pos, "unknown module %q", inst.Module)
	}
	// Evaluate parameter overrides in the parent scope.
	overrides := map[string]logic.Vector{}
	paramNames := childParamNames(child)
	for i, c := range inst.Params {
		name := c.Name
		if name == "" {
			if i >= len(paramNames) {
				return elabErrf(inst.Pos, "too many positional parameters for %s", inst.Module)
			}
			name = paramNames[i]
		}
		v, err := s.e.constEval(c.Expr, s.params, inst.Pos)
		if err != nil {
			return err
		}
		overrides[name] = v
	}

	childPrefix := s.prefix + inst.Name + "."
	s.e.depth++
	err := s.e.module(child, childPrefix, overrides, false)
	s.e.depth--
	if err != nil {
		return err
	}

	// Connect ports.
	ports := child.Ports()
	var flatNames []string
	var flatDirs []verilog.DeclKind
	for _, pd := range ports {
		for _, n := range pd.Names {
			flatNames = append(flatNames, n)
			flatDirs = append(flatDirs, pd.Kind)
		}
	}
	// Respect header order when available.
	if len(child.PortOrder) == len(flatNames) {
		dirByName := map[string]verilog.DeclKind{}
		for i, n := range flatNames {
			dirByName[n] = flatDirs[i]
		}
		flatNames = append([]string(nil), child.PortOrder...)
		flatDirs = flatDirs[:0]
		for _, n := range flatNames {
			flatDirs = append(flatDirs, dirByName[n])
		}
	}

	for i, c := range inst.Conns {
		var portName string
		var dir verilog.DeclKind
		if c.Name != "" {
			idx := indexOf(flatNames, c.Name)
			if idx < 0 {
				return elabErrf(inst.Pos, "module %s has no port %q", inst.Module, c.Name)
			}
			portName, dir = flatNames[idx], flatDirs[idx]
		} else {
			if i >= len(flatNames) {
				return elabErrf(inst.Pos, "too many positional connections for %s", inst.Module)
			}
			portName, dir = flatNames[i], flatDirs[i]
		}
		if c.Expr == nil {
			continue // unconnected port
		}
		parentExpr, err := s.rewriteExpr(c.Expr)
		if err != nil {
			return err
		}
		childSig := childPrefix + portName
		switch dir {
		case verilog.DeclInput:
			body := &verilog.Assign{LHS: &verilog.Ident{Name: childSig}, RHS: parentExpr, Pos: inst.Pos}
			s.e.design.Procs = append(s.e.design.Procs, &Process{
				Kind: ProcComb, Sens: levelSens(verilog.AutoSens(body, false)), Body: body,
				Name: childSig + " (port input)",
			})
		case verilog.DeclOutput:
			if err := s.checkLValue(parentExpr, inst.Pos, false); err != nil {
				return err
			}
			body := &verilog.Assign{LHS: parentExpr, RHS: &verilog.Ident{Name: childSig}, Pos: inst.Pos}
			s.e.design.Procs = append(s.e.design.Procs, &Process{
				Kind: ProcComb, Sens: levelSens(verilog.AutoSens(body, false)), Body: body,
				Name: childSig + " (port output)",
			})
		default:
			return elabErrf(inst.Pos, "inout ports are not supported in instances")
		}
	}
	return nil
}

func childParamNames(m *verilog.Module) []string {
	var out []string
	for _, it := range m.Items {
		if d, ok := it.(*verilog.Decl); ok && d.Kind == verilog.DeclParameter {
			out = append(out, d.Names[0])
		}
	}
	return out
}

func indexOf(ss []string, s string) int {
	for i, v := range ss {
		if v == s {
			return i
		}
	}
	return -1
}

// rewriteExpr maps identifiers into the flat namespace, substituting
// parameters by their constant values.
func (s *scopedElab) rewriteExpr(e verilog.Expr) (verilog.Expr, error) {
	switch x := e.(type) {
	case nil:
		return nil, nil
	case *verilog.Ident:
		if v, ok := s.params[x.Name]; ok {
			return &verilog.Number{Width: v.Width(), Val: v}, nil
		}
		full := s.prefix + x.Name
		if s.e.design.Signals[full] == nil {
			return nil, elabErrf(x.Pos, "undeclared identifier %q", x.Name)
		}
		return &verilog.Ident{Name: full, Pos: x.Pos}, nil
	case *verilog.Number, *verilog.StringLit:
		return e, nil
	case *verilog.Unary:
		in, err := s.rewriteExpr(x.X)
		if err != nil {
			return nil, err
		}
		return &verilog.Unary{Op: x.Op, X: in}, nil
	case *verilog.Binary:
		l, err := s.rewriteExpr(x.X)
		if err != nil {
			return nil, err
		}
		r, err := s.rewriteExpr(x.Y)
		if err != nil {
			return nil, err
		}
		return &verilog.Binary{Op: x.Op, X: l, Y: r, Pos: x.Pos}, nil
	case *verilog.Ternary:
		c, err := s.rewriteExpr(x.Cond)
		if err != nil {
			return nil, err
		}
		th, err := s.rewriteExpr(x.Then)
		if err != nil {
			return nil, err
		}
		el, err := s.rewriteExpr(x.Else)
		if err != nil {
			return nil, err
		}
		return &verilog.Ternary{Cond: c, Then: th, Else: el}, nil
	case *verilog.Concat:
		out := &verilog.Concat{}
		for _, p := range x.Parts {
			rp, err := s.rewriteExpr(p)
			if err != nil {
				return nil, err
			}
			out.Parts = append(out.Parts, rp)
		}
		return out, nil
	case *verilog.Repl:
		cnt, err := s.rewriteExpr(x.Count)
		if err != nil {
			return nil, err
		}
		val, err := s.rewriteExpr(x.Value)
		if err != nil {
			return nil, err
		}
		return &verilog.Repl{Count: cnt, Value: val}, nil
	case *verilog.Index:
		in, err := s.rewriteExpr(x.X)
		if err != nil {
			return nil, err
		}
		idx, err := s.rewriteExpr(x.Index)
		if err != nil {
			return nil, err
		}
		return &verilog.Index{X: in, Index: idx}, nil
	case *verilog.PartSelect:
		in, err := s.rewriteExpr(x.X)
		if err != nil {
			return nil, err
		}
		msb, err := s.rewriteExpr(x.MSB)
		if err != nil {
			return nil, err
		}
		lsb, err := s.rewriteExpr(x.LSB)
		if err != nil {
			return nil, err
		}
		return &verilog.PartSelect{X: in, MSB: msb, LSB: lsb}, nil
	default:
		return nil, elabErrf(verilog.Pos{}, "unsupported expression %T", e)
	}
}

func (s *scopedElab) rewriteStmt(st verilog.Stmt) (verilog.Stmt, error) {
	switch x := st.(type) {
	case nil:
		return nil, nil
	case *verilog.Null:
		return x, nil
	case *verilog.Block:
		out := &verilog.Block{Name: x.Name}
		for _, sub := range x.Stmts {
			rs, err := s.rewriteStmt(sub)
			if err != nil {
				return nil, err
			}
			out.Stmts = append(out.Stmts, rs)
		}
		return out, nil
	case *verilog.Assign:
		lhs, err := s.rewriteExpr(x.LHS)
		if err != nil {
			return nil, err
		}
		if err := s.checkLValue(lhs, x.Pos, true); err != nil {
			return nil, err
		}
		rhs, err := s.rewriteExpr(x.RHS)
		if err != nil {
			return nil, err
		}
		return &verilog.Assign{LHS: lhs, RHS: rhs, NonBlocking: x.NonBlocking, Pos: x.Pos}, nil
	case *verilog.If:
		c, err := s.rewriteExpr(x.Cond)
		if err != nil {
			return nil, err
		}
		th, err := s.rewriteStmt(x.Then)
		if err != nil {
			return nil, err
		}
		el, err := s.rewriteStmt(x.Else)
		if err != nil {
			return nil, err
		}
		return &verilog.If{Cond: c, Then: th, Else: el}, nil
	case *verilog.Case:
		sel, err := s.rewriteExpr(x.Expr)
		if err != nil {
			return nil, err
		}
		out := &verilog.Case{Kind: x.Kind, Expr: sel}
		for _, item := range x.Items {
			var exprs []verilog.Expr
			for _, e := range item.Exprs {
				re, err := s.rewriteExpr(e)
				if err != nil {
					return nil, err
				}
				exprs = append(exprs, re)
			}
			body, err := s.rewriteStmt(item.Body)
			if err != nil {
				return nil, err
			}
			out.Items = append(out.Items, verilog.CaseItem{Exprs: exprs, Body: body})
		}
		return out, nil
	case *verilog.For:
		init, err := s.rewriteStmt(x.Init)
		if err != nil {
			return nil, err
		}
		cond, err := s.rewriteExpr(x.Cond)
		if err != nil {
			return nil, err
		}
		step, err := s.rewriteStmt(x.Step)
		if err != nil {
			return nil, err
		}
		body, err := s.rewriteStmt(x.Body)
		if err != nil {
			return nil, err
		}
		return &verilog.For{Init: init.(*verilog.Assign), Cond: cond, Step: step.(*verilog.Assign), Body: body}, nil
	case *verilog.Repeat:
		cnt, err := s.rewriteExpr(x.Count)
		if err != nil {
			return nil, err
		}
		body, err := s.rewriteStmt(x.Body)
		if err != nil {
			return nil, err
		}
		return &verilog.Repeat{Count: cnt, Body: body}, nil
	case *verilog.Delay:
		amt, err := s.rewriteExpr(x.Amount)
		if err != nil {
			return nil, err
		}
		body, err := s.rewriteStmt(x.Body)
		if err != nil {
			return nil, err
		}
		return &verilog.Delay{Amount: amt, Body: body}, nil
	case *verilog.SysCall:
		out := &verilog.SysCall{Name: x.Name, Pos: x.Pos}
		for _, a := range x.Args {
			if _, ok := a.(*verilog.StringLit); ok {
				out.Args = append(out.Args, a)
				continue
			}
			ra, err := s.rewriteExpr(a)
			if err != nil {
				return nil, err
			}
			out.Args = append(out.Args, ra)
		}
		return out, nil
	default:
		return nil, elabErrf(verilog.Pos{}, "unsupported statement %T", st)
	}
}

// checkLValue verifies that an already-rewritten expression is a legal
// assignment target. procedural selects whether reg-ness is required.
func (s *scopedElab) checkLValue(lhs verilog.Expr, pos verilog.Pos, procedural bool) error {
	switch x := lhs.(type) {
	case *verilog.Ident:
		sig := s.e.design.Signals[x.Name]
		if sig == nil {
			return elabErrf(pos, "assignment to undeclared %q", x.Name)
		}
		if procedural && !sig.IsVar {
			return elabErrf(pos, "procedural assignment to wire %q (declare it reg)", x.Name)
		}
		if !procedural && sig.IsVar {
			return elabErrf(pos, "continuous assignment to reg %q", x.Name)
		}
		return nil
	case *verilog.Index:
		return s.checkLValue(x.X, pos, procedural)
	case *verilog.PartSelect:
		return s.checkLValue(x.X, pos, procedural)
	case *verilog.Concat:
		for _, p := range x.Parts {
			if err := s.checkLValue(p, pos, procedural); err != nil {
				return err
			}
		}
		return nil
	default:
		return elabErrf(pos, "invalid assignment target")
	}
}

// constEval evaluates a constant expression during elaboration.
func (e *elaborator) constEval(expr verilog.Expr, params map[string]logic.Vector, pos verilog.Pos) (logic.Vector, error) {
	v, err := verilog.ConstValue(expr, &verilog.ConstEnv{Params: params})
	if err != nil {
		return logic.Vector{}, &ElabError{Pos: pos, Msg: err.Error()}
	}
	return v, nil
}
