package sim

// Per-lane compilation for the batch engine.
//
// Process bodies compile into closures that take a (BatchInstance,
// lane) pair and read and write the [slot*n + lane] state block. Every
// expression compiles to one closure kind, a word closure (wExpr)
// returning its value's aval/bval words, read straight from the uint64
// planes and combined by the word kernels of the operator table
// (logic.BinaryOp and logic.UnaryOp's word column, the same kernels the
// logic.Vector operators call on their narrow branch); every assignment
// target compiles to a closure taking such words (wLV). Zero extension
// of a normalized word is the word itself, so a word closure needs no
// resize. Every case mirrors the corresponding verilog.Eval/exec case
// of the interpreter exactly — same width contexts (the shared
// verilog.SelfWidth/LHSWidth, folded at compile time over a
// verilog.ConstEnv, compile.go), the same operator rules, same
// X-propagation, same no-op rules for unknown indices and bounds — so
// a batch lane is bit-identical to an interpreter Instance running the
// same design (TestBatchDifferentialMicro, FuzzBatchLaneMatchesInterp
// and the testbench-level differentials assert this across the
// dataset).
//
// A body the closures cannot express — a value or target wider than
// logic.WordBits, which no golden has, a width or span that depends on
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

// wExpr evaluates an expression for one lane, as the aval/bval words of
// its value, zero above its width. It cannot fail at run time
// (everything fallible is resolved at compile time).
type wExpr func(b *BatchInstance, lane int32) (va, vb uint64)

// cexpr is a compiled expression of the given width, at most
// logic.WordBits.
type cexpr struct {
	w     wExpr
	width int
}

// truth returns a closure giving c's logic.Truth.
func (c cexpr) truth() func(b *BatchInstance, lane int32) logic.Bit {
	w := c.w
	return func(b *BatchInstance, lane int32) logic.Bit { return logic.TruthWord(w(b, lane)) }
}

// uint64 returns a closure giving c's value as Vector.Uint64 does.
func (c cexpr) uint64() func(b *BatchInstance, lane int32) (uint64, bool) {
	w := c.w
	return func(b *BatchInstance, lane int32) (uint64, bool) {
		va, vb := w(b, lane)
		return va, vb == 0
	}
}

// constOf is the cexpr of a constant at most logic.WordBits wide.
func constOf(v logic.Vector) cexpr {
	va, vb := v.LowWord()
	return cexpr{w: func(*BatchInstance, int32) (uint64, uint64) { return va, vb }, width: v.Width()}
}

// wLV applies an already-evaluated RHS value, given as words, to an
// lvalue in a slot at most logic.WordBits wide, for one lane, writing
// through (blocking) or queueing on the lane's NBA list. It cuts the
// value to the target's width itself, so bits above it may be anything.
type wLV func(b *BatchInstance, lane int32, va, vb uint64, nb bool)

var bNoop bStmt = func(b *BatchInstance, lane int32) error { return nil }

// lvNoop is the target of a write that never lands: a part-select with
// unknown bounds or wholly out of range.
var lvNoop wLV = func(*BatchInstance, int32, uint64, uint64, bool) {}

// batchCompiler compiles process bodies into per-lane closures against
// one base design. env folds the interpreter's width rules and constant
// bounds at compile time: it knows base's signal widths and reads no
// signal, so where they depend on a signal value the body is
// errDynamic.
type batchCompiler struct {
	d   *Design
	env verilog.Env
}

// expr compiles e under context width ctx. The compiled closure always
// yields a value of width max(ctx, verilog.SelfWidth(e)), exactly as
// verilog.Eval does; where that width is past logic.WordBits, e is
// errDynamic.
func (bc *batchCompiler) expr(e verilog.Expr, ctx int) (cexpr, error) {
	self, static := verilog.SelfWidth(e, bc.env)
	want := max(self, ctx)
	if !static || want > logic.WordBits {
		return cexpr{}, errDynamic
	}
	switch x := e.(type) {
	case *verilog.Number:
		return constOf(x.Val.Resize(want)), nil

	case *verilog.StringLit:
		return cexpr{}, errDynamic

	case *verilog.Ident:
		slot, ok := bc.d.slotOf[x.Name]
		if !ok {
			return cexpr{}, errDynamic
		}
		s := int32(slot) // narrow: its width is at most want
		return cexpr{w: func(b *BatchInstance, lane int32) (uint64, uint64) {
			i := int(s)*b.n + int(lane)
			return b.wa[i], b.wb[i]
		}, width: want}, nil

	case *verilog.Unary:
		_, wfn, sz, ok := logic.UnaryOp(x.Op)
		if !ok {
			return cexpr{}, errDynamic
		}
		operand, _ := sz.Operands(want)
		c, err := bc.expr(x.X, operand)
		if err != nil {
			return cexpr{}, err
		}
		v, ow := c.w, c.width
		return cexpr{w: func(b *BatchInstance, lane int32) (uint64, uint64) {
			va, vb := v(b, lane)
			return wfn(ow, va, vb)
		}, width: want}, nil

	case *verilog.Binary:
		_, wfn, sz, ok := logic.BinaryOp(x.Op)
		if !ok {
			return cexpr{}, errDynamic
		}
		lctx, rctx := sz.Operands(want)
		l, err := bc.expr(x.X, lctx)
		if err != nil {
			return cexpr{}, err
		}
		r, err := bc.expr(x.Y, rctx)
		if err != nil {
			return cexpr{}, err
		}
		kw := l.width // the width the kernel computes at (logic.WordBinary)
		if sz == logic.SizeSelf {
			kw = max(l.width, r.width)
		}
		return cexpr{w: binaryWord(wfn, kw, l.w, r.w), width: want}, nil

	case *verilog.Ternary:
		cond, err := bc.expr(x.Cond, 0)
		if err != nil {
			return cexpr{}, err
		}
		th, err := bc.expr(x.Then, want)
		if err != nil {
			return cexpr{}, err
		}
		el, err := bc.expr(x.Else, want)
		if err != nil {
			return cexpr{}, err
		}
		truth, tw, ew := cond.truth(), th.w, el.w
		return cexpr{w: func(b *BatchInstance, lane int32) (uint64, uint64) {
			switch t := truth(b, lane); t {
			case logic.L1:
				return tw(b, lane)
			case logic.L0:
				return ew(b, lane)
			default:
				ta, tb := tw(b, lane)
				ea, eb := ew(b, lane)
				return logic.MuxWord(want, t, ta, tb, ea, eb)
			}
		}, width: want}, nil

	case *verilog.Concat:
		// Shift each part in below the ones before.
		ws := make([]wExpr, len(x.Parts))
		shifts := make([]uint, len(x.Parts))
		for i, p := range x.Parts {
			pc, err := bc.expr(p, 0)
			if err != nil {
				return cexpr{}, err
			}
			ws[i], shifts[i] = pc.w, uint(pc.width)
		}
		return cexpr{w: func(b *BatchInstance, lane int32) (uint64, uint64) {
			var ra, rb uint64
			for i, pw := range ws {
				va, vb := pw(b, lane)
				ra, rb = ra<<shifts[i]|va, rb<<shifts[i]|vb
			}
			return ra, rb
		}, width: want}, nil

	case *verilog.Repl:
		nV, err := verilog.Eval(x.Count, bc.env, 0)
		if err != nil {
			return cexpr{}, errDynamic
		}
		c, err := bc.expr(x.Value, 0)
		if err != nil {
			return cexpr{}, err
		}
		n, err := verilog.ReplCount(nV, c.width)
		if err != nil {
			return cexpr{}, errDynamic // verilog.Eval reports it
		}
		v, vw := c.w, c.width
		return cexpr{w: func(b *BatchInstance, lane int32) (uint64, uint64) {
			va, vb := v(b, lane)
			return logic.ReplicateWord(n, vw, va, vb)
		}, width: want}, nil

	case *verilog.Index:
		base, err := bc.expr(x.X, 0)
		if err != nil {
			return cexpr{}, err
		}
		idx, err := bc.expr(x.Index, 0)
		if err != nil {
			return cexpr{}, err
		}
		bs, iv, bw := base.w, idx.uint64(), uint64(base.width)
		// An unknown or out-of-range index reads 1'bx.
		return cexpr{w: func(b *BatchInstance, lane int32) (uint64, uint64) {
			i, ok := iv(b, lane)
			if !ok || i >= bw {
				return 1, 1
			}
			va, vb := bs(b, lane)
			return va >> i & 1, vb >> i & 1
		}, width: want}, nil

	case *verilog.PartSelect:
		base, err := bc.expr(x.X, 0)
		if err != nil {
			return cexpr{}, err
		}
		bw := base.width
		hiV, errHi := verilog.Eval(x.MSB, bc.env, 0)
		loV, errLo := verilog.Eval(x.LSB, bc.env, 0)
		if errHi != nil || errLo != nil {
			return cexpr{}, errDynamic
		}
		msb, ok1 := hiV.Uint64()
		lsb, ok2 := loV.Uint64()
		if !ok1 || !ok2 {
			return constOf(logic.AllX(want)), nil
		}
		hi, lo, err := verilog.SelectSpan(msb, lsb)
		if err != nil {
			return cexpr{}, errDynamic // verilog.Eval reports it
		}
		// verilog.SelectBits's two cases, told apart here by base's static width.
		if lo >= uint64(bw) {
			return constOf(verilog.SelectBits(logic.New(bw), hi, lo).Resize(want)), nil
		}
		bs, h, l := base.w, int(hi), int(lo)
		return cexpr{w: func(b *BatchInstance, lane int32) (uint64, uint64) {
			va, vb := bs(b, lane)
			return logic.SliceWord(bw, va, vb, h, l)
		}, width: want}, nil

	default:
		return cexpr{}, errDynamic
	}
}

// binaryWord is the word closure of a binary operator whose operands
// are word closures, computing at kernel width kw.
func binaryWord(f logic.WordBinary, kw int, l, r wExpr) wExpr {
	return func(b *BatchInstance, lane int32) (uint64, uint64) {
		xa, xb := l(b, lane)
		ya, yb := r(b, lane)
		return f(kw, xa, xb, ya, yb)
	}
}

// lvalue compiles an assignment target. The spans and clamping
// mirror resolveLValue. A target in a slot wider than logic.WordBits,
// or a concatenation wider than that, is errDynamic.
func (bc *batchCompiler) lvalue(lhs verilog.Expr) (wLV, error) {
	switch x := lhs.(type) {
	case *verilog.Ident:
		s, width, err := bc.narrowSlot(x)
		if err != nil {
			return nil, err
		}
		m := logic.Mask(width)
		return func(b *BatchInstance, lane int32, va, vb uint64, nb bool) {
			va, vb = va&m, vb&m
			if nb {
				b.queueNBA(lane, resolvedWrite{slot: s, val: logic.FromWord(width, va, vb), whole: true})
			} else {
				b.writeWord(lane, s, va, vb)
			}
		}, nil

	case *verilog.Index:
		s, width, err := bc.narrowSlot(x.X)
		if err != nil {
			return nil, err
		}
		idx, err := bc.expr(x.Index, 0)
		if err != nil {
			return nil, err
		}
		iv, w := idx.uint64(), uint64(width)
		// A write through an unknown or out-of-range index is a no-op.
		return func(b *BatchInstance, lane int32, va, vb uint64, nb bool) {
			i, ok := iv(b, lane)
			if !ok || i >= w {
				return
			}
			if nb {
				b.queueNBA(lane, resolvedWrite{slot: s, hi: int(i), lo: int(i), val: logic.FromWord(1, va&1, vb&1)})
			} else {
				b.writeSpan(lane, s, int(i), int(i), va&1, vb&1)
			}
		}, nil

	case *verilog.PartSelect:
		s, width, err := bc.narrowSlot(x.X)
		if err != nil {
			return nil, err
		}
		hiV, errHi := verilog.Eval(x.MSB, bc.env, 0)
		loV, errLo := verilog.Eval(x.LSB, bc.env, 0)
		if errHi != nil || errLo != nil {
			return nil, errDynamic
		}
		msb, ok3 := hiV.Uint64()
		lsb, ok4 := loV.Uint64()
		if !ok3 || !ok4 {
			return lvNoop, nil
		}
		hi, lo, err := verilog.SelectSpan(msb, lsb)
		if err != nil {
			return nil, errDynamic // resolveLValue reports it
		}
		h, l, inRange := verilog.WriteSpan(hi, lo, width)
		if !inRange {
			return lvNoop, nil
		}
		span := h - l + 1
		m := logic.Mask(span)
		return func(b *BatchInstance, lane int32, va, vb uint64, nb bool) {
			va, vb = va&m, vb&m
			if nb {
				b.queueNBA(lane, resolvedWrite{slot: s, hi: h, lo: l, val: logic.FromWord(span, va, vb)})
			} else {
				b.writeSpan(lane, s, h, l, va, vb)
			}
		}, nil

	case *verilog.Concat:
		total, static := verilog.LHSWidth(lhs, bc.env)
		if !static || total > logic.WordBits {
			return nil, errDynamic
		}
		type part struct {
			lv wLV
			lo uint
			m  uint64
		}
		parts := make([]part, len(x.Parts))
		offset := total
		for i, p := range x.Parts {
			w, _ := verilog.LHSWidth(p, bc.env) // static, since total is
			offset -= w
			lv, err := bc.lvalue(p)
			if err != nil {
				return nil, err
			}
			parts[i] = part{lv: lv, lo: uint(offset), m: logic.Mask(w)}
		}
		m := logic.Mask(total)
		return func(b *BatchInstance, lane int32, va, vb uint64, nb bool) {
			va, vb = va&m, vb&m
			for _, p := range parts {
				p.lv(b, lane, va>>p.lo&p.m, vb>>p.lo&p.m, nb)
			}
		}, nil

	default:
		return nil, errDynamic
	}
}

// narrowSlot resolves the identifier an assignment target writes
// through to its slot and width; a slot wider than logic.WordBits, or a
// target that is not an identifier, is errDynamic.
func (bc *batchCompiler) narrowSlot(e verilog.Expr) (slot int32, width int, err error) {
	id, ok := e.(*verilog.Ident)
	if !ok {
		return 0, 0, errDynamic
	}
	i, ok := bc.d.slotOf[id.Name]
	if !ok || bc.d.wideOf[i] >= 0 {
		return 0, 0, errDynamic
	}
	return int32(i), bc.d.slotWidths[i], nil
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
		rhs, err := bc.expr(x.RHS, ctx)
		if err != nil {
			return nil, err
		}
		lv, err := bc.lvalue(x.LHS)
		if err != nil {
			return nil, err
		}
		rw, nb := rhs.w, x.NonBlocking
		return func(b *BatchInstance, lane int32) error {
			va, vb := rw(b, lane)
			lv(b, lane, va, vb, nb)
			return nil
		}, nil

	case *verilog.If:
		cond, err := bc.expr(x.Cond, 0)
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
		truth := cond.truth()
		return func(b *BatchInstance, lane int32) error {
			if truth(b, lane) == logic.L1 {
				return th(b, lane)
			}
			if el != nil {
				return el(b, lane)
			}
			return nil
		}, nil

	case *verilog.Case:
		sel, err := bc.expr(x.Expr, 0)
		if err != nil {
			return nil, err
		}
		type caseArm struct {
			labels []wExpr
			body   bStmt
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
				ce, err := bc.expr(e, 0)
				if err != nil {
					return nil, err
				}
				arm.labels = append(arm.labels, ce.w)
			}
			arms = append(arms, arm)
		}
		sw, match := sel.w, verilog.CaseMatchWord(x.Kind)
		return func(b *BatchInstance, lane int32) error {
			sa, sb := sw(b, lane)
			for _, arm := range arms {
				for _, le := range arm.labels {
					if la, lb := le(b, lane); match(sa, sb, la, lb) {
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
		c, err := bc.expr(x.Cond, 0)
		if err != nil {
			return nil, err
		}
		cond := c.truth()
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
				if cond(b, lane) != logic.L1 {
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
		c, err := bc.expr(x.Count, 0)
		if err != nil {
			return nil, err
		}
		cnt := c.uint64()
		body, err := bc.stmt(x.Body)
		if err != nil {
			return nil, err
		}
		return func(b *BatchInstance, lane int32) error {
			n, ok := cnt(b, lane)
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
