package vstatic

import (
	"fmt"
	"maps"
	"slices"

	"correctbench/internal/logic"
	"correctbench/internal/verilog"
)

// ProcError is a typed purity-analysis failure: Code names the defect
// class for diagnostics, Msg carries the human-readable detail.
type ProcError struct {
	Code string
	Msg  string
}

func (e *ProcError) Error() string { return e.Msg }

func procErrf(code, format string, args ...interface{}) *ProcError {
	return &ProcError{Code: code, Msg: fmt.Sprintf(format, args...)}
}

// Purity-failure codes.
const (
	CodeLatch       = "latch"       // target not assigned on every path
	CodeCombState   = "comb-state"  // reads its own output before assigning it
	CodeSensMiss    = "sens-miss"   // reads a signal outside its sensitivity list
	CodeBadLValue   = "bad-lvalue"  // unsupported assignment target
	CodeUnsupported = "unsupported" // statement outside the analyzable subset
)

// ProcFacts is the classification of one combinational process body:
// Err is nil exactly when the body is a pure function of its
// sensitivity list (the run-once levelized schedule is then valid for
// it). Writes and Reads carry bit-granular masks for the driver and
// dependency analyses; NBA lists nonblocking targets in encounter
// order.
type ProcFacts struct {
	Err error
	// Writes maps each blocking-assigned signal to the union of bits
	// any path may write. With Err == nil every masked bit is also
	// definitely written on every path.
	Writes map[string]*Mask
	// Reads maps each known signal the body may read to the bits read
	// (whole-signal reads and non-constant indexes mark all bits).
	Reads map[string]*Mask
	// NBA lists nonblocking-assignment targets in encounter order.
	NBA []string
}

// AnalyzeProc proves a combinational process body a pure function of
// its level sensitivity list. sens reports sensitivity-list
// membership (for a process without an explicit list, membership in
// verilog.AutoSens). env.Width, which must be set, resolves a
// declared signal's width; false marks the name unknown, which excludes
// it from every check (mirroring the simulator's slot-table lookups).
// env.Params are the parameters constants fold with; nil is fine, since
// post-elaboration bodies have them inlined.
//
// The analysis is a definite-assignment walk at bit granularity:
// partial writes through constant indexes and part selects accumulate
// coverage instead of being rejected, so per-bit writer idioms (one
// continuous assign per output bit) classify as static. A read of a
// signal the process itself blocking-writes must land on bits already
// definitely assigned on this run (otherwise the process observes its
// previous run — latch state); reads of bits it never writes must be
// in the sensitivity list (otherwise the event scheduler would not
// re-run the process when they change, and a run-once schedule would
// disagree with it). At the end of the body every bit the process
// ever writes must be definitely written on every path.
func AnalyzeProc(body verilog.Stmt, sens func(string) bool, env verilog.ConstEnv) ProcFacts {
	p := &procAnalysis{
		env:    env,
		sens:   sens,
		writes: map[string]*Mask{},
		reads:  map[string]*Mask{},
		nbaSet: map[string]bool{},
	}
	p.collectTargets(body)
	final, err := p.walk(body, assignState{})
	if err == nil {
		// Latch rule: every bit the process may write must be written
		// on every path, or the unwritten bits carry state.
		for _, name := range slices.Sorted(maps.Keys(p.writes)) {
			if !final.mask(name, p).Covers(p.writes[name]) {
				err = procErrf(CodeLatch, "%q is not assigned on every path (latch)", name)
				break
			}
		}
	}
	return ProcFacts{Err: err, Writes: p.writes, Reads: p.reads, NBA: p.nba}
}

type procAnalysis struct {
	env    verilog.ConstEnv
	sens   func(string) bool
	writes map[string]*Mask // may-write masks of blocking targets
	reads  map[string]*Mask
	nba    []string
	nbaSet map[string]bool
}

// widthOf resolves a signal width with a scalar fallback for unknown
// names (module-level callers flag those separately).
func (p *procAnalysis) widthOf(name string) int {
	if w, ok := p.env.Width(name); ok {
		return w
	}
	return 1
}

// collectTargets prefills the may-write masks (blocking) and the
// nonblocking target set, so read checks can distinguish own-output
// bits from input bits anywhere in the body.
func (p *procAnalysis) collectTargets(body verilog.Stmt) {
	var lhs func(e verilog.Expr)
	lhs = func(e verilog.Expr) {
		switch x := e.(type) {
		case *verilog.Ident:
			p.writeMask(x.Name).SetAll()
		case *verilog.Index:
			if id, ok := x.X.(*verilog.Ident); ok {
				m := p.writeMask(id.Name)
				if i, ok := p.constIdx(x.Index); ok && i < m.Width() {
					m.SetBit(i)
				} else {
					m.SetAll()
				}
			}
		case *verilog.PartSelect:
			if id, ok := x.X.(*verilog.Ident); ok {
				m := p.writeMask(id.Name)
				if lo, hi, ok := p.constRange(x); ok && hi < m.Width() {
					m.SetRange(lo, hi)
				} else {
					m.SetAll()
				}
			}
		case *verilog.Concat:
			for _, part := range x.Parts {
				lhs(part)
			}
		}
	}
	verilog.WalkStmts(body, func(s verilog.Stmt) {
		a, ok := s.(*verilog.Assign)
		if !ok {
			return
		}
		if a.NonBlocking {
			for _, n := range verilog.LHSTargets(a.LHS) {
				p.nbaSet[n] = true
			}
			return
		}
		lhs(a.LHS)
	})
}

func (p *procAnalysis) writeMask(name string) *Mask {
	m := p.writes[name]
	if m == nil {
		m = NewMask(p.widthOf(name))
		p.writes[name] = m
	}
	return m
}

func (p *procAnalysis) readMask(name string) *Mask {
	m := p.reads[name]
	if m == nil {
		m = NewMask(p.widthOf(name))
		p.reads[name] = m
	}
	return m
}

func (p *procAnalysis) constIdx(e verilog.Expr) (int, bool) {
	return constIndex(e, &p.env)
}

// constRange resolves a part select's bounds, normalized lo <= hi.
func (p *procAnalysis) constRange(x *verilog.PartSelect) (lo, hi int, ok bool) {
	msb, ok1 := p.constIdx(x.MSB)
	lsb, ok2 := p.constIdx(x.LSB)
	if !ok1 || !ok2 {
		return 0, 0, false
	}
	if msb < lsb {
		msb, lsb = lsb, msb
	}
	return lsb, msb, true
}

// constCond folds a constant condition: ok reports constant, truth
// reports whether the then branch runs (unknown bits take else, per
// IEEE if semantics).
func (p *procAnalysis) constCond(e verilog.Expr) (truth, ok bool) {
	v, err := verilog.Eval(e, &p.env, 0)
	if err != nil {
		return false, false
	}
	return logic.Truth(v) == logic.L1, true
}

// assignState tracks per-signal definitely-assigned bit masks along
// one execution path.
type assignState map[string]*Mask

func (a assignState) clone() assignState {
	out := make(assignState, len(a))
	for k, m := range a { //detlint:allow copies every entry into a new map; the order reaches nothing
		out[k] = m.Clone()
	}
	return out
}

// mask returns the definite mask for name, materializing an empty one.
func (a assignState) mask(name string, p *procAnalysis) *Mask {
	m := a[name]
	if m == nil {
		m = NewMask(p.widthOf(name))
		a[name] = m
	}
	return m
}

func intersectState(a, b assignState, p *procAnalysis) assignState {
	out := assignState{}
	for k, m := range a { //detlint:allow each key's entry depends on that key alone; the order reaches nothing
		if bm := b[k]; bm != nil {
			c := m.Clone()
			c.And(bm)
			out[k] = c
		}
	}
	return out
}

// checkExpr validates every read in e against the definite-assignment
// state and records read masks. Reads resolve at bit granularity:
// a constant bit/part select of an identifier reads only those bits.
func (p *procAnalysis) checkExpr(e verilog.Expr, a assignState) error {
	switch x := e.(type) {
	case nil:
		return nil
	case *verilog.Ident:
		return p.checkIdentRead(x.Name, -1, -1, a)
	case *verilog.Index:
		if err := p.checkExpr(x.Index, a); err != nil {
			return err
		}
		if id, ok := x.X.(*verilog.Ident); ok {
			if i, ok := p.constIdx(x.Index); ok {
				return p.checkIdentRead(id.Name, i, i, a)
			}
			return p.checkIdentRead(id.Name, -1, -1, a)
		}
		return p.checkExpr(x.X, a)
	case *verilog.PartSelect:
		if err := p.checkExpr(x.MSB, a); err != nil {
			return err
		}
		if err := p.checkExpr(x.LSB, a); err != nil {
			return err
		}
		if id, ok := x.X.(*verilog.Ident); ok {
			if lo, hi, ok := p.constRange(x); ok {
				return p.checkIdentRead(id.Name, lo, hi, a)
			}
			return p.checkIdentRead(id.Name, -1, -1, a)
		}
		return p.checkExpr(x.X, a)
	case *verilog.Unary:
		return p.checkExpr(x.X, a)
	case *verilog.Binary:
		if err := p.checkExpr(x.X, a); err != nil {
			return err
		}
		return p.checkExpr(x.Y, a)
	case *verilog.Ternary:
		if err := p.checkExpr(x.Cond, a); err != nil {
			return err
		}
		if err := p.checkExpr(x.Then, a); err != nil {
			return err
		}
		return p.checkExpr(x.Else, a)
	case *verilog.Concat:
		for _, part := range x.Parts {
			if err := p.checkExpr(part, a); err != nil {
				return err
			}
		}
		return nil
	case *verilog.Repl:
		if err := p.checkExpr(x.Count, a); err != nil {
			return err
		}
		return p.checkExpr(x.Value, a)
	default: // Number, StringLit
		return nil
	}
}

// checkIdentRead validates a read of bits lo..hi of name (-1,-1 means
// the whole signal). Unknown names are skipped entirely, like the
// simulator's slot lookups.
func (p *procAnalysis) checkIdentRead(name string, lo, hi int, a assignState) error {
	w, known := p.env.Width(name)
	if !known {
		return nil
	}
	read := NewMask(w)
	if lo < 0 {
		read.SetAll()
	} else {
		read.SetRange(lo, hi)
	}
	p.readMask(name).Or(read)

	if wm := p.writes[name]; wm != nil {
		// Bits this process itself writes must be definitely assigned
		// before the read, or the process observes its previous run.
		own := read.Clone()
		own.And(wm)
		if !own.Empty() && !a.mask(name, p).Covers(own) {
			return procErrf(CodeCombState, "reads %q before assigning it", name)
		}
		// Bits outside the write mask are inputs: they must be in the
		// sensitivity list for the event scheduler to re-run us.
		external := false
		for i := 0; i < w; i++ {
			if read.Bit(i) && !wm.Bit(i) {
				external = true
				break
			}
		}
		if external && !p.sens(name) && !p.nbaSet[name] {
			return procErrf(CodeSensMiss, "reads %q outside its sensitivity list", name)
		}
		return nil
	}
	if !p.sens(name) && !p.nbaSet[name] {
		return procErrf(CodeSensMiss, "reads %q outside its sensitivity list", name)
	}
	return nil
}

// assignLHS applies a blocking-assignment target to the state:
// whole identifiers and constant bit/part selects mark their bits
// definitely assigned; non-constant partial writes still require the
// target to be fully assigned already (the written bit is unknown,
// so coverage cannot accumulate).
func (p *procAnalysis) assignLHS(lhs verilog.Expr, a assignState) error {
	switch x := lhs.(type) {
	case *verilog.Ident:
		a.mask(x.Name, p).SetAll()
		return nil
	case *verilog.Index:
		if err := p.checkExpr(x.Index, a); err != nil {
			return err
		}
		id, ok := x.X.(*verilog.Ident)
		if !ok {
			return procErrf(CodeBadLValue, "unsupported assignment target")
		}
		m := a.mask(id.Name, p)
		if i, ok := p.constIdx(x.Index); ok && i < m.Width() {
			m.SetBit(i)
			return nil
		}
		if !m.Full() {
			return procErrf(CodeCombState, "partial write to %q before whole assignment", id.Name)
		}
		return nil
	case *verilog.PartSelect:
		if err := p.checkExpr(x.MSB, a); err != nil {
			return err
		}
		if err := p.checkExpr(x.LSB, a); err != nil {
			return err
		}
		id, ok := x.X.(*verilog.Ident)
		if !ok {
			return procErrf(CodeBadLValue, "unsupported assignment target")
		}
		m := a.mask(id.Name, p)
		if lo, hi, ok := p.constRange(x); ok && hi < m.Width() {
			m.SetRange(lo, hi)
			return nil
		}
		if !m.Full() {
			return procErrf(CodeCombState, "partial write to %q before whole assignment", id.Name)
		}
		return nil
	case *verilog.Concat:
		for _, part := range x.Parts {
			if err := p.assignLHS(part, a); err != nil {
				return err
			}
		}
		return nil
	default:
		return procErrf(CodeBadLValue, "unsupported assignment target")
	}
}

// walk analyzes s starting from state a, returning the state after s
// on every path.
func (p *procAnalysis) walk(s verilog.Stmt, a assignState) (assignState, error) {
	switch x := s.(type) {
	case nil, *verilog.Null:
		return a, nil

	case *verilog.Block:
		var err error
		for _, sub := range x.Stmts {
			if a, err = p.walk(sub, a); err != nil {
				return nil, err
			}
		}
		return a, nil

	case *verilog.Assign:
		if err := p.checkExpr(x.RHS, a); err != nil {
			return nil, err
		}
		if x.NonBlocking {
			id, ok := x.LHS.(*verilog.Ident)
			if !ok {
				return nil, procErrf(CodeBadLValue, "nonblocking write to a partial target")
			}
			p.nba = append(p.nba, id.Name)
			return a, nil
		}
		if err := p.assignLHS(x.LHS, a); err != nil {
			return nil, err
		}
		return a, nil

	case *verilog.If:
		if err := p.checkExpr(x.Cond, a); err != nil {
			return nil, err
		}
		th, err := p.walk(x.Then, a.clone())
		if err != nil {
			return nil, err
		}
		el := a
		if x.Else != nil {
			if el, err = p.walk(x.Else, a.clone()); err != nil {
				return nil, err
			}
		}
		// A constant condition makes one branch dead: the live
		// branch's state flows through alone (both branches are still
		// checked for defects above).
		if truth, ok := p.constCond(x.Cond); ok {
			if truth {
				return th, nil
			}
			return el, nil
		}
		return intersectState(th, el, p), nil

	case *verilog.Case:
		if err := p.checkExpr(x.Expr, a); err != nil {
			return nil, err
		}
		hasDefault := false
		var result assignState
		for _, item := range x.Items {
			for _, e := range item.Exprs {
				if err := p.checkExpr(e, a); err != nil {
					return nil, err
				}
			}
			if item.Exprs == nil {
				hasDefault = true
			}
			arm, err := p.walk(item.Body, a.clone())
			if err != nil {
				return nil, err
			}
			if result == nil {
				result = arm
			} else {
				result = intersectState(result, arm, p)
			}
		}
		if result == nil {
			return a, nil
		}
		if !hasDefault {
			// No arm may match: only what was assigned before survives.
			result = intersectState(result, a, p)
		}
		return result, nil

	case *verilog.For:
		a, err := p.walk(x.Init, a)
		if err != nil {
			return nil, err
		}
		if err := p.checkExpr(x.Cond, a); err != nil {
			return nil, err
		}
		// The body may run zero times; anything assigned inside does
		// not survive, but reads inside must still be clean against
		// the post-init state.
		ab, err := p.walk(x.Body, a.clone())
		if err != nil {
			return nil, err
		}
		if _, err := p.walk(x.Step, ab); err != nil {
			return nil, err
		}
		return a, nil

	case *verilog.Repeat:
		if err := p.checkExpr(x.Count, a); err != nil {
			return nil, err
		}
		if _, err := p.walk(x.Body, a.clone()); err != nil {
			return nil, err
		}
		return a, nil

	case *verilog.SysCall:
		// Only the argument-ignoring no-op calls survive batch
		// compilation, so nothing is read here.
		return a, nil

	default:
		return nil, procErrf(CodeUnsupported, "unsupported statement")
	}
}
