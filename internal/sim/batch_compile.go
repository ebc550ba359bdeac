package sim

// Per-lane compilation for the SoA batch engine.
//
// Process bodies compile into closures that take a (BatchInstance,
// lane) pair and read and write the flat [slot][lane] state block.
// Every case mirrors the corresponding verilog.Eval/exec case of the
// interpreter exactly — same width contexts (the shared
// verilog.SelfWidth/LHSWidth, folded at compile time over a
// verilog.ConstEnv, compile.go), the same operator table (logic.BinaryOp and
// logic.UnaryOp, resolved here once at compile time), same
// X-propagation, same no-op rules for unknown indices and bounds — so
// a batch lane is bit-identical to an interpreter Instance running the
// same design (TestBatchDifferentialMicro, FuzzBatchLaneMatchesInterp
// and the testbench-level differentials assert this across the
// dataset).
//
// A body the closures cannot express — a width or span that depends on
// a signal value (errDynamic), a part-select, replication or
// concatenation wider than verilog.MaxVectorWidth, a display task,
// $finish/$stop or a delay control — is not folded at all: body
// compiles it to a closure that runs the interpreter's own exec on the
// lane (laneState), so one copy of each rule serves both engines and
// every design compiles.

import (
	"fmt"

	"correctbench/internal/logic"
	"correctbench/internal/verilog"
)

// bStmt executes a statement for one lane of a batch instance.
type bStmt func(b *BatchInstance, lane int32) error

// bExpr evaluates an expression for one lane; it cannot fail at
// runtime (everything fallible is resolved at compile time).
type bExpr func(b *BatchInstance, lane int32) logic.Vector

// bLV applies an already-evaluated RHS value to an lvalue for one
// lane, writing through (blocking) or queueing on the lane's NBA list.
type bLV func(b *BatchInstance, lane int32, val logic.Vector, nb bool)

var bNoop bStmt = func(b *BatchInstance, lane int32) error { return nil }

// batchCompiler compiles process bodies into per-lane closures against
// one base design. env folds the interpreter's width rules and constant
// bounds at compile time: it knows base's signal widths and reads no
// signal, so where they depend on a signal value the body is
// errDynamic.
type batchCompiler struct {
	d   *Design
	env verilog.Env
}

// expr compiles e under context width ctx. The returned closure always
// yields a vector of width max(ctx, verilog.SelfWidth(e)), exactly as
// verilog.Eval does.
func (bc *batchCompiler) expr(e verilog.Expr, ctx int) (bExpr, int, error) {
	self, static := verilog.SelfWidth(e, bc.env)
	if !static {
		return nil, 0, errDynamic
	}
	want := self
	if ctx > want {
		want = ctx
	}
	switch x := e.(type) {
	case *verilog.Number:
		v := x.Val.Resize(want)
		return func(b *BatchInstance, lane int32) logic.Vector { return v }, want, nil

	case *verilog.StringLit:
		return nil, 0, errDynamic

	case *verilog.Ident:
		slot, ok := bc.d.slotOf[x.Name]
		if !ok {
			return nil, 0, errDynamic
		}
		s := int32(slot)
		if bc.d.slotWidths[slot] == want {
			return func(b *BatchInstance, lane int32) logic.Vector {
				return b.vals[int(s)*b.n+int(lane)]
			}, want, nil
		}
		return func(b *BatchInstance, lane int32) logic.Vector {
			return b.vals[int(s)*b.n+int(lane)].Resize(want)
		}, want, nil

	case *verilog.Unary:
		fn, sz, ok := logic.UnaryOp(x.Op)
		if !ok {
			return nil, 0, errDynamic
		}
		operand, _ := sz.Operands(want)
		v, _, err := bc.expr(x.X, operand)
		if err != nil {
			return nil, 0, err
		}
		return bc.resized(func(b *BatchInstance, lane int32) logic.Vector { return fn(v(b, lane)) }, sz.Result(want), want), want, nil

	case *verilog.Binary:
		fn, sz, ok := logic.BinaryOp(x.Op)
		if !ok {
			return nil, 0, errDynamic
		}
		lctx, rctx := sz.Operands(want)
		l, _, err := bc.expr(x.X, lctx)
		if err != nil {
			return nil, 0, err
		}
		r, _, err := bc.expr(x.Y, rctx)
		if err != nil {
			return nil, 0, err
		}
		return bc.resized(func(b *BatchInstance, lane int32) logic.Vector { return fn(l(b, lane), r(b, lane)) }, sz.Result(want), want), want, nil

	case *verilog.Ternary:
		cond, _, err := bc.expr(x.Cond, 0)
		if err != nil {
			return nil, 0, err
		}
		th, _, err := bc.expr(x.Then, want)
		if err != nil {
			return nil, 0, err
		}
		el, _, err := bc.expr(x.Else, want)
		if err != nil {
			return nil, 0, err
		}
		return func(b *BatchInstance, lane int32) logic.Vector {
			return logic.Mux(cond(b, lane), th(b, lane), el(b, lane))
		}, want, nil

	case *verilog.Concat:
		parts := make([]bExpr, len(x.Parts))
		for i, p := range x.Parts {
			pc, _, err := bc.expr(p, 0)
			if err != nil {
				return nil, 0, err
			}
			parts[i] = pc
		}
		total := self
		if total <= 64 && len(parts) > 0 {
			// Every prefix fits one word, so fold pairwise: Concat's
			// operands then live on the stack and nothing is allocated.
			return bc.resized(func(b *BatchInstance, lane int32) logic.Vector {
				r := parts[0](b, lane)
				for _, pc := range parts[1:] {
					r = logic.Concat(r, pc(b, lane))
				}
				return r
			}, total, want), want, nil
		}
		return bc.resized(func(b *BatchInstance, lane int32) logic.Vector {
			vals := make([]logic.Vector, len(parts))
			for i, pc := range parts {
				vals[i] = pc(b, lane)
			}
			return logic.Concat(vals...)
		}, total, want), want, nil

	case *verilog.Repl:
		nV, err := verilog.Eval(x.Count, bc.env, 0)
		if err != nil {
			return nil, 0, errDynamic
		}
		v, vw, err := bc.expr(x.Value, 0)
		if err != nil {
			return nil, 0, err
		}
		n, err := verilog.ReplCount(nV, vw)
		if err != nil {
			return nil, 0, errDynamic // verilog.Eval reports it
		}
		return bc.resized(func(b *BatchInstance, lane int32) logic.Vector {
			return logic.Replicate(n, v(b, lane))
		}, n*vw, want), want, nil

	case *verilog.Index:
		base, _, err := bc.expr(x.X, 0)
		if err != nil {
			return nil, 0, err
		}
		idx, _, err := bc.expr(x.Index, 0)
		if err != nil {
			return nil, 0, err
		}
		xext := logic.AllX(1).Resize(want)
		return func(b *BatchInstance, lane int32) logic.Vector {
			bv := base(b, lane)
			iv, ok := idx(b, lane).Uint64()
			if !ok || iv >= uint64(bv.Width()) {
				return xext
			}
			r := logic.Slice(bv, int(iv), int(iv))
			if want != 1 {
				r = r.Resize(want)
			}
			return r
		}, want, nil

	case *verilog.PartSelect:
		base, bw, err := bc.expr(x.X, 0)
		if err != nil {
			return nil, 0, err
		}
		hiV, errHi := verilog.Eval(x.MSB, bc.env, 0)
		loV, errLo := verilog.Eval(x.LSB, bc.env, 0)
		if errHi != nil || errLo != nil {
			return nil, 0, errDynamic
		}
		msb, ok1 := hiV.Uint64()
		lsb, ok2 := loV.Uint64()
		if !ok1 || !ok2 {
			allx := logic.AllX(want)
			return func(b *BatchInstance, lane int32) logic.Vector { return allx }, want, nil
		}
		hi, lo, err := verilog.SelectSpan(msb, lsb)
		if err != nil {
			return nil, 0, errDynamic // verilog.Eval reports it
		}
		// verilog.SelectBits's two cases, told apart here by base's static width.
		if lo >= uint64(bw) {
			v := verilog.SelectBits(logic.New(bw), hi, lo).Resize(want)
			return func(b *BatchInstance, lane int32) logic.Vector { return v }, want, nil
		}
		h, l := int(hi), int(lo)
		return bc.resized(func(b *BatchInstance, lane int32) logic.Vector {
			return logic.Slice(base(b, lane), h, l)
		}, self, want), want, nil

	default:
		return nil, 0, errDynamic
	}
}

func (bc *batchCompiler) resized(f bExpr, natural, want int) bExpr {
	if natural == want {
		return f
	}
	return func(b *BatchInstance, lane int32) logic.Vector { return f(b, lane).Resize(want) }
}

// lvalue compiles an assignment target. The spans and clamping
// mirror resolveLValue.
func (bc *batchCompiler) lvalue(lhs verilog.Expr) (bLV, error) {
	switch x := lhs.(type) {
	case *verilog.Ident:
		slot, ok := bc.d.slotOf[x.Name]
		if !ok {
			return nil, errDynamic
		}
		width := bc.d.slotWidths[slot]
		s := int32(slot)
		return func(b *BatchInstance, lane int32, val logic.Vector, nb bool) {
			w := resolvedWrite{slot: s, val: val.Resize(width), whole: true}
			if nb {
				b.nba[lane] = append(b.nba[lane], w)
			} else {
				b.applyWrite(lane, w)
			}
		}, nil

	case *verilog.Index:
		id, ok := x.X.(*verilog.Ident)
		if !ok {
			return nil, errDynamic
		}
		slot, ok2 := bc.d.slotOf[id.Name]
		if !ok2 {
			return nil, errDynamic
		}
		width := bc.d.slotWidths[slot]
		idx, _, err := bc.expr(x.Index, 0)
		if err != nil {
			return nil, err
		}
		s := int32(slot)
		return func(b *BatchInstance, lane int32, val logic.Vector, nb bool) {
			iv, ok := idx(b, lane).Uint64()
			if !ok || iv >= uint64(width) {
				return // write through unknown/out-of-range index: no-op
			}
			w := resolvedWrite{slot: s, hi: int(iv), lo: int(iv), val: val.Resize(1)}
			if nb {
				b.nba[lane] = append(b.nba[lane], w)
			} else {
				b.applyWrite(lane, w)
			}
		}, nil

	case *verilog.PartSelect:
		id, ok := x.X.(*verilog.Ident)
		if !ok {
			return nil, errDynamic
		}
		slot, ok2 := bc.d.slotOf[id.Name]
		if !ok2 {
			return nil, errDynamic
		}
		width := bc.d.slotWidths[slot]
		hiV, errHi := verilog.Eval(x.MSB, bc.env, 0)
		loV, errLo := verilog.Eval(x.LSB, bc.env, 0)
		if errHi != nil || errLo != nil {
			return nil, errDynamic
		}
		msb, ok3 := hiV.Uint64()
		lsb, ok4 := loV.Uint64()
		if !ok3 || !ok4 {
			return func(b *BatchInstance, lane int32, val logic.Vector, nb bool) {}, nil
		}
		hi, lo, err := verilog.SelectSpan(msb, lsb)
		if err != nil {
			return nil, errDynamic // resolveLValue reports it
		}
		h, l, inRange := verilog.WriteSpan(hi, lo, width)
		if !inRange {
			return func(b *BatchInstance, lane int32, val logic.Vector, nb bool) {}, nil
		}
		s, span := int32(slot), h-l+1
		return func(b *BatchInstance, lane int32, val logic.Vector, nb bool) {
			w := resolvedWrite{slot: s, hi: h, lo: l, val: val.Resize(span)}
			if nb {
				b.nba[lane] = append(b.nba[lane], w)
			} else {
				b.applyWrite(lane, w)
			}
		}, nil

	case *verilog.Concat:
		total, static := verilog.LHSWidth(lhs, bc.env)
		if !static {
			return nil, errDynamic
		}
		type part struct {
			lv     bLV
			hi, lo int
		}
		parts := make([]part, 0, len(x.Parts))
		offset := total
		for _, p := range x.Parts {
			w, _ := verilog.LHSWidth(p, bc.env) // static, since total is
			offset -= w
			lv, err := bc.lvalue(p)
			if err != nil {
				return nil, err
			}
			parts = append(parts, part{lv: lv, hi: offset + w - 1, lo: offset})
		}
		return func(b *BatchInstance, lane int32, val logic.Vector, nb bool) {
			vt := val.Resize(total)
			for _, p := range parts {
				p.lv(b, lane, logic.Slice(vt, p.hi, p.lo), nb)
			}
		}, nil

	default:
		return nil, errDynamic
	}
}

// body compiles a process body. A body stmt rejects runs exec on the
// lane instead; folded reports which one the closure does.
func (bc *batchCompiler) body(s verilog.Stmt) (code bStmt, folded bool) {
	if code, err := bc.stmt(s); err == nil {
		return code, true
	}
	return func(b *BatchInstance, lane int32) error { return exec(&b.views[lane], s) }, false
}

// stmt compiles a statement, mirroring exec.
func (bc *batchCompiler) stmt(s verilog.Stmt) (bStmt, error) {
	switch x := s.(type) {
	case nil, *verilog.Null:
		return bNoop, nil

	case *verilog.Block:
		stmts := make([]bStmt, len(x.Stmts))
		for i, sub := range x.Stmts {
			cs, err := bc.stmt(sub)
			if err != nil {
				return nil, err
			}
			stmts[i] = cs
		}
		return func(b *BatchInstance, lane int32) error {
			for _, st := range stmts {
				if err := st(b, lane); err != nil {
					return err
				}
			}
			return nil
		}, nil

	case *verilog.Assign:
		ctx, static := verilog.LHSWidth(x.LHS, bc.env)
		if !static {
			return nil, errDynamic
		}
		rhs, _, err := bc.expr(x.RHS, ctx)
		if err != nil {
			return nil, err
		}
		lv, err := bc.lvalue(x.LHS)
		if err != nil {
			return nil, err
		}
		nb := x.NonBlocking
		return func(b *BatchInstance, lane int32) error {
			lv(b, lane, rhs(b, lane), nb)
			return nil
		}, nil

	case *verilog.If:
		cond, _, err := bc.expr(x.Cond, 0)
		if err != nil {
			return nil, err
		}
		th, err := bc.stmt(x.Then)
		if err != nil {
			return nil, err
		}
		var el bStmt
		if x.Else != nil {
			el, err = bc.stmt(x.Else)
			if err != nil {
				return nil, err
			}
		}
		return func(b *BatchInstance, lane int32) error {
			if logic.Truth(cond(b, lane)) == logic.L1 {
				return th(b, lane)
			}
			if el != nil {
				return el(b, lane)
			}
			return nil
		}, nil

	case *verilog.Case:
		sel, _, err := bc.expr(x.Expr, 0)
		if err != nil {
			return nil, err
		}
		type caseArm struct {
			exprs []bExpr
			body  bStmt
		}
		var arms []caseArm
		var deflt bStmt
		for _, item := range x.Items {
			body, err := bc.stmt(item.Body)
			if err != nil {
				return nil, err
			}
			if item.Exprs == nil {
				deflt = body
				continue
			}
			arm := caseArm{body: body}
			for _, e := range item.Exprs {
				ce, _, err := bc.expr(e, 0)
				if err != nil {
					return nil, err
				}
				arm.exprs = append(arm.exprs, ce)
			}
			arms = append(arms, arm)
		}
		match := verilog.CaseMatch(x.Kind)
		return func(b *BatchInstance, lane int32) error {
			sv := sel(b, lane)
			for _, arm := range arms {
				for _, le := range arm.exprs {
					if match(sv, le(b, lane)) {
						return arm.body(b, lane)
					}
				}
			}
			if deflt != nil {
				return deflt(b, lane)
			}
			return nil
		}, nil

	case *verilog.For:
		init, err := bc.stmt(x.Init)
		if err != nil {
			return nil, err
		}
		cond, _, err := bc.expr(x.Cond, 0)
		if err != nil {
			return nil, err
		}
		step, err := bc.stmt(x.Step)
		if err != nil {
			return nil, err
		}
		body, err := bc.stmt(x.Body)
		if err != nil {
			return nil, err
		}
		return func(b *BatchInstance, lane int32) error {
			if err := init(b, lane); err != nil {
				return err
			}
			for iter := 0; ; iter++ {
				if iter > maxLoopIterations {
					return fmt.Errorf("for loop exceeded %d iterations", maxLoopIterations)
				}
				if logic.Truth(cond(b, lane)) != logic.L1 {
					return nil
				}
				if err := body(b, lane); err != nil {
					return err
				}
				if err := step(b, lane); err != nil {
					return err
				}
			}
		}, nil

	case *verilog.Repeat:
		cnt, _, err := bc.expr(x.Count, 0)
		if err != nil {
			return nil, err
		}
		body, err := bc.stmt(x.Body)
		if err != nil {
			return nil, err
		}
		return func(b *BatchInstance, lane int32) error {
			n, ok := cnt(b, lane).Uint64()
			if !ok {
				return nil // repeat (x) runs zero times
			}
			if n > maxLoopIterations {
				return fmt.Errorf("repeat count %d too large", n)
			}
			for i := uint64(0); i < n; i++ {
				if err := body(b, lane); err != nil {
					return err
				}
			}
			return nil
		}, nil

	case *verilog.SysCall:
		switch x.Name {
		case "$time", "$random", "$dumpfile", "$dumpvars", "$timeformat":
			// Accepted, no effect — exactly the interpreter's no-op list, and
			// those calls never evaluate their arguments.
			return bNoop, nil
		default:
			// Display tasks and $finish/$stop act on the lane's system
			// state; the body runs on exec.
			return nil, errDynamic
		}

	case *verilog.Delay:
		// A delay control errors under the cycle API; exec reports it.
		return nil, errDynamic

	default:
		return nil, errDynamic
	}
}
