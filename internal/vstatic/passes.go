package vstatic

import (
	"maps"
	"math/bits"
	"slices"
	"strings"

	"correctbench/internal/logic"
	"correctbench/internal/verilog"
)

// driverPass reports multi-driver conflicts among combinational
// processes, signals driven by both combinational and sequential
// logic, and drives of input ports.
func (v *modView) driverPass(combs []*proc, region Region) {
	for _, c := range region.Conflicts() {
		if c.NBA {
			v.res.add(combs[c.B].pos, SevError, CodeMultiDriver, c.Signal,
				"signal %q has multiple combinational nonblocking writers (%s and %s)",
				c.Signal, combs[c.A].name, combs[c.B].name)
		} else {
			v.res.add(combs[c.B].pos, SevError, CodeMultiDriver, c.Signal,
				"signal %q driven by both %s and %s", c.Signal, combs[c.A].name, combs[c.B].name)
		}
	}

	combWrites := map[string]*Mask{}
	writePos := map[string]verilog.Pos{}
	for i, f := range region.Facts {
		for _, name := range slices.Sorted(maps.Keys(f.Writes)) {
			if combWrites[name] == nil {
				w, _ := v.width(name)
				combWrites[name] = NewMask(w)
				writePos[name] = combs[i].pos
			}
			combWrites[name].Or(f.Writes[name])
		}
		for _, name := range f.NBA {
			if _, ok := writePos[name]; !ok {
				writePos[name] = combs[i].pos
			}
			if combWrites[name] == nil {
				w, _ := v.width(name)
				m := NewMask(w)
				m.SetAll()
				combWrites[name] = m
			}
		}
	}
	seqWrites := map[string]*Mask{}
	seqPos := map[string]verilog.Pos{}
	for _, p := range v.procs {
		if !p.seq {
			continue
		}
		for name, m := range collectWrites(p.body, &v.env) { //detlint:allow ORs each mask into its own name's entry; the order reaches nothing
			if seqWrites[name] == nil {
				seqWrites[name] = NewMask(m.Width())
				seqPos[name] = p.pos
			}
			seqWrites[name].Or(m)
		}
	}

	for _, name := range slices.Sorted(maps.Keys(seqWrites)) {
		if combWrites[name] != nil && combWrites[name].Intersects(seqWrites[name]) {
			v.res.add(seqPos[name], SevWarning, CodeMixedDriver, name,
				"signal %q has both combinational and sequential drivers", name)
		}
	}
	flagInput := func(name string, pos verilog.Pos) {
		if s, ok := v.signals[name]; ok && s.kind == verilog.DeclInput {
			v.res.add(pos, SevError, CodeDriveInput, name, "input port %q is driven inside the module", name)
		}
	}
	for _, name := range slices.Sorted(maps.Keys(combWrites)) {
		flagInput(name, writePos[name])
	}
	for _, name := range slices.Sorted(maps.Keys(seqWrites)) {
		if combWrites[name] == nil {
			flagInput(name, seqPos[name])
		}
	}
}

// collectWrites gathers the may-write masks of every assignment in a
// statement tree (blocking and nonblocking alike), for processes the
// purity analysis does not cover.
func collectWrites(body verilog.Stmt, env *verilog.ConstEnv) map[string]*Mask {
	out := map[string]*Mask{}
	var addLHS func(e verilog.Expr)
	addLHS = func(e verilog.Expr) {
		switch x := e.(type) {
		case *verilog.Ident:
			m := writeMask(out, x.Name, env)
			m.SetAll()
		case *verilog.Index:
			if id, ok := x.X.(*verilog.Ident); ok {
				m := writeMask(out, id.Name, env)
				if i, ok := constIndex(x.Index, env); ok {
					m.SetBit(i)
				} else {
					m.SetAll()
				}
			}
		case *verilog.PartSelect:
			if id, ok := x.X.(*verilog.Ident); ok {
				m := writeMask(out, id.Name, env)
				hi, ok1 := constIndex(x.MSB, env)
				lo, ok2 := constIndex(x.LSB, env)
				if ok1 && ok2 {
					if hi < lo {
						hi, lo = lo, hi
					}
					m.SetRange(lo, hi)
				} else {
					m.SetAll()
				}
			}
		case *verilog.Concat:
			for _, p := range x.Parts {
				addLHS(p)
			}
		}
	}
	verilog.WalkStmts(body, func(s verilog.Stmt) {
		if a, ok := s.(*verilog.Assign); ok {
			addLHS(a.LHS)
		}
	})
	return out
}

func writeMask(m map[string]*Mask, name string, env *verilog.ConstEnv) *Mask {
	if m[name] == nil {
		w, ok := env.Width(name)
		if !ok {
			w = 1
		}
		m[name] = NewMask(w)
	}
	return m[name]
}

// loopPass reports combinational cycles. A loop is a warning, not an
// error: event-driven simulation may still settle it (latch idioms),
// but it defeats static scheduling and usually signals a design bug.
func (v *modView) loopPass(combs []*proc, region Region) {
	for _, scc := range SCCs(len(region.Facts), region.Edges()) {
		if len(scc) <= 1 {
			continue
		}
		names := make([]string, len(scc))
		for i, ord := range scc {
			names[i] = combs[ord].name
		}
		v.res.add(combs[scc[0]].pos, SevWarning, CodeCombLoop, "",
			"combinational loop through %s", strings.Join(names, ", "))
	}
}

// widthPass lints assignments whose right-hand side carries more
// significant bits than the target can hold (truncation) or whose
// plain-identifier source is narrower than the target (implicit
// zero extension). Effective widths are value-aware for literals, so
// `y[3:0] = x + 1` does not flag just because unsized 1 is 32 bits.
func (v *modView) widthPass() {
	for _, p := range v.procs {
		verilog.WalkStmts(p.body, func(s verilog.Stmt) {
			a, ok := s.(*verilog.Assign)
			if !ok {
				return
			}
			lhsW, ok := v.knownWidth(a.LHS, verilog.LHSWidth)
			if !ok {
				return
			}
			eff, ok := v.effWidth(a.RHS)
			if !ok {
				return
			}
			if eff > lhsW {
				v.res.add(a.Pos, SevWarning, CodeWidthTrunc, firstTarget(a.LHS),
					"expression of effective width %d is truncated to %d bits", eff, lhsW)
				return
			}
			if id, isIdent := a.RHS.(*verilog.Ident); isIdent && eff < lhsW {
				if _, isConst := v.env.Params[id.Name]; !isConst {
					v.res.add(a.Pos, SevInfo, CodeWidthExt, firstTarget(a.LHS),
						"%d-bit %q is implicitly zero-extended to %d bits", eff, id.Name, lhsW)
				}
			}
		})
	}
}

func firstTarget(lhs verilog.Expr) string {
	ts := verilog.LHSTargets(lhs)
	if len(ts) == 0 {
		return ""
	}
	return ts[0]
}

// effWidth is the number of significant bits an expression can
// produce: literal values count their actual magnitude, operators
// follow self-determined width rules. False means "not confidently
// known" (e.g. an undeclared identifier) and suppresses the lint.
func (v *modView) effWidth(e verilog.Expr) (int, bool) {
	switch x := e.(type) {
	case *verilog.Number:
		if val, defined := x.Val.Uint64(); defined {
			w := bits.Len64(val)
			if w < 1 {
				w = 1
			}
			return w, true
		}
		if x.Width > 0 {
			return x.Width, true
		}
		return 32, true
	case *verilog.StringLit:
		return 8 * len(x.Value), true
	case *verilog.Ident:
		if val, ok := v.env.Params[x.Name]; ok {
			if u, defined := val.Uint64(); defined {
				w := bits.Len64(u)
				if w < 1 {
					w = 1
				}
				return w, true
			}
			return val.Width(), true
		}
		w, ok := v.width(x.Name)
		return w, ok
	case *verilog.Unary:
		if _, _, sz, _ := logic.UnaryOp(x.Op); sz == logic.SizeContext {
			return v.selfW(x.X)
		}
		return 1, true
	case *verilog.Binary:
		switch _, _, sz, _ := logic.BinaryOp(x.Op); sz {
		case logic.SizeContext:
			l, ok1 := v.effWidth(x.X)
			r, ok2 := v.effWidth(x.Y)
			if !ok1 || !ok2 {
				return 0, false
			}
			return max(l, r), true
		case logic.SizeLeftContext:
			return v.effWidth(x.X)
		}
		return 1, true
	case *verilog.Ternary:
		l, ok1 := v.effWidth(x.Then)
		r, ok2 := v.effWidth(x.Else)
		if !ok1 || !ok2 {
			return 0, false
		}
		if r > l {
			l = r
		}
		return l, true
	case *verilog.Index:
		return 1, true
	case *verilog.Concat, *verilog.Repl, *verilog.PartSelect:
		return v.selfW(e)
	}
	return v.selfW(e)
}

// selfW is the engine's self-determined width, known as for knownWidth.
func (v *modView) selfW(e verilog.Expr) (int, bool) {
	return v.knownWidth(e, verilog.SelfWidth)
}

// knownWidth is e's width by one of the engine's width rules
// (verilog.SelfWidth or verilog.LHSWidth); false, so that no lint fires
// off it, when e names an undeclared identifier or the width is not
// static (a select bound or replication count that does not fold, or a
// width past verilog.MaxVectorWidth).
func (v *modView) knownWidth(e verilog.Expr, rule func(verilog.Expr, verilog.Env) (int, bool)) (int, bool) {
	known := true
	verilog.WalkExprs(e, func(x verilog.Expr) {
		if id, ok := x.(*verilog.Ident); ok {
			if _, p := v.env.Params[id.Name]; p {
				return
			}
			if _, s := v.signals[id.Name]; !s {
				known = false
			}
		}
	})
	if !known {
		return 0, false
	}
	return rule(e, &v.env)
}

// constPass propagates compile-time constants to find conditions that
// cannot vary and case arms that cannot match: constant if/case
// selectors, duplicate arms, and arms whose value needs more bits
// than the selector can ever carry.
func (v *modView) constPass() {
	for _, p := range v.procs {
		pos := p.pos
		verilog.WalkStmts(p.body, func(s verilog.Stmt) {
			switch x := s.(type) {
			case *verilog.If:
				cv, err := verilog.Eval(x.Cond, &v.env, 0)
				if err != nil {
					return
				}
				if logic.Truth(cv) == logic.L1 {
					if x.Else != nil {
						v.res.add(pos, SevWarning, CodeConstCond, "",
							"if condition %s is constantly true; the else branch never runs", verilog.ExprString(x.Cond))
					} else {
						v.res.add(pos, SevWarning, CodeConstCond, "",
							"if condition %s is constantly true", verilog.ExprString(x.Cond))
					}
				} else {
					v.res.add(pos, SevWarning, CodeConstCond, "",
						"if condition %s is never true; the then branch never runs", verilog.ExprString(x.Cond))
				}
			case *verilog.Case:
				v.checkCase(x, pos)
			}
		})
	}
}

func (v *modView) checkCase(c *verilog.Case, pos verilog.Pos) {
	selW, selKnown := v.selfW(c.Expr)
	selConst, err := verilog.Eval(c.Expr, &v.env, 0)
	selIsConst := err == nil
	match := verilog.CaseMatch(c.Kind)
	var seen []logic.Vector
	for _, item := range c.Items {
		for _, e := range item.Exprs {
			av, err := verilog.Eval(e, &v.env, 0)
			if err != nil {
				continue
			}
			if selKnown && !selIsConst {
				for i := selW; i < av.Width(); i++ {
					if av.Bit(i) == logic.L1 {
						v.res.add(pos, SevWarning, CodeUnreachable, "",
							"case arm %s cannot match: it needs %d bits but the selector has %d",
							verilog.ExprString(e), i+1, selW)
						break
					}
				}
			}
			dup := false
			for _, prev := range seen {
				w := prev.Width()
				if av.Width() > w {
					w = av.Width()
				}
				if prev.Resize(w).Equal(av.Resize(w)) {
					dup = true
					break
				}
			}
			if dup {
				v.res.add(pos, SevWarning, CodeDupArm, "",
					"case arm %s duplicates an earlier arm and never runs", verilog.ExprString(e))
			} else {
				seen = append(seen, av)
			}
			if selIsConst && !match(selConst, av) {
				v.res.add(pos, SevWarning, CodeUnreachable, "",
					"case arm %s cannot match the constant selector %s",
					verilog.ExprString(e), verilog.ExprString(c.Expr))
			}
		}
	}
}
