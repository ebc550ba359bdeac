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
// Which bodies fold is decided in one place, vstatic.Folds, which the
// module-level lint reads too. body asks it first. A body it rejects —
// a value or target wider than logic.WordBits, which no golden has, a
// width or span that depends on a signal value, a display task,
// $finish/$stop or a delay control — compiles to a closure that runs
// the interpreter's own exec on the lane (laneState), so one copy of
// each rule serves both engines and every design compiles. A body it
// accepts compiles with no error path: a construct the rule excludes
// panics (unfoldable), since reaching one is a broken contract, not an
// input error.

import (
	"fmt"

	"correctbench/internal/logic"
	"correctbench/internal/verilog"
	"correctbench/internal/vstatic"
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
// signal, so where they depend on a signal value vstatic.Folds rejects
// the body.
type batchCompiler struct {
	d   *Design
	env verilog.ConstEnv
}

// unfoldable is the panic value for a construct vstatic.Folds rejects:
// the compiler only compiles bodies the rule accepted.
func unfoldable(construct any) string {
	return fmt.Sprintf("sim: batch compiler: vstatic.Folds accepted a body holding an unfoldable %T", construct)
}

// fold evaluates a replication count or part-select bound at compile
// time.
func (bc *batchCompiler) fold(e verilog.Expr) logic.Vector {
	v, err := verilog.Eval(e, &bc.env, 0)
	if err != nil {
		panic(unfoldable(e))
	}
	return v
}

// bounds folds a part-select's bounds to its span [hi:lo], as
// verilog.SelectSpan orders it; known is false when a bound is X or Z.
func (bc *batchCompiler) bounds(x *verilog.PartSelect) (hi, lo uint64, known bool) {
	msb, ok1 := bc.fold(x.MSB).Uint64()
	lsb, ok2 := bc.fold(x.LSB).Uint64()
	if !ok1 || !ok2 {
		return 0, 0, false
	}
	hi, lo, err := verilog.SelectSpan(msb, lsb)
	if err != nil {
		panic(unfoldable(x))
	}
	return hi, lo, true
}

// slot is the slot of a signal a body names.
func (bc *batchCompiler) slot(id *verilog.Ident) int32 {
	i, ok := bc.d.slotOf[id.Name]
	if !ok {
		panic(unfoldable(id))
	}
	return int32(i)
}

// expr compiles e under context width ctx. The compiled closure always
// yields a value of width max(ctx, verilog.SelfWidth(e)), exactly as
// verilog.Eval does; vstatic.Folds has checked that width is static and
// at most logic.WordBits.
func (bc *batchCompiler) expr(e verilog.Expr, ctx int) cexpr {
	self, static := verilog.SelfWidth(e, &bc.env)
	want := max(self, ctx)
	if !static || want > logic.WordBits {
		panic(unfoldable(e))
	}
	switch x := e.(type) {
	case *verilog.Number:
		return constOf(x.Val.Resize(want))

	case *verilog.Ident:
		s := bc.slot(x) // narrow: its width is at most want
		return cexpr{w: func(b *BatchInstance, lane int32) (uint64, uint64) {
			i := int(s)*b.n + int(lane)
			return b.wa[i], b.wb[i]
		}, width: want}

	case *verilog.Unary:
		_, wfn, sz, ok := logic.UnaryOp(x.Op)
		if !ok {
			panic(unfoldable(x))
		}
		operand, _ := sz.Operands(want)
		c := bc.expr(x.X, operand)
		v, ow := c.w, c.width
		return cexpr{w: func(b *BatchInstance, lane int32) (uint64, uint64) {
			va, vb := v(b, lane)
			return wfn(ow, va, vb)
		}, width: want}

	case *verilog.Binary:
		_, wfn, sz, ok := logic.BinaryOp(x.Op)
		if !ok {
			panic(unfoldable(x))
		}
		lctx, rctx := sz.Operands(want)
		l, r := bc.expr(x.X, lctx), bc.expr(x.Y, rctx)
		kw := l.width // the width the kernel computes at (logic.WordBinary)
		if sz == logic.SizeSelf {
			kw = max(l.width, r.width)
		}
		return cexpr{w: binaryWord(wfn, kw, l.w, r.w), width: want}

	case *verilog.Ternary:
		truth := bc.expr(x.Cond, 0).truth()
		tw, ew := bc.expr(x.Then, want).w, bc.expr(x.Else, want).w
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
		}, width: want}

	case *verilog.Concat:
		// Shift each part in below the ones before.
		ws := make([]wExpr, len(x.Parts))
		shifts := make([]uint, len(x.Parts))
		for i, p := range x.Parts {
			pc := bc.expr(p, 0)
			ws[i], shifts[i] = pc.w, uint(pc.width)
		}
		return cexpr{w: func(b *BatchInstance, lane int32) (uint64, uint64) {
			var ra, rb uint64
			for i, pw := range ws {
				va, vb := pw(b, lane)
				ra, rb = ra<<shifts[i]|va, rb<<shifts[i]|vb
			}
			return ra, rb
		}, width: want}

	case *verilog.Repl:
		c := bc.expr(x.Value, 0)
		n, err := verilog.ReplCount(bc.fold(x.Count), c.width)
		if err != nil {
			panic(unfoldable(x))
		}
		v, vw := c.w, c.width
		return cexpr{w: func(b *BatchInstance, lane int32) (uint64, uint64) {
			va, vb := v(b, lane)
			return logic.ReplicateWord(n, vw, va, vb)
		}, width: want}

	case *verilog.Index:
		base := bc.expr(x.X, 0)
		bs, iv, bw := base.w, bc.expr(x.Index, 0).uint64(), uint64(base.width)
		// An unknown or out-of-range index reads 1'bx.
		return cexpr{w: func(b *BatchInstance, lane int32) (uint64, uint64) {
			i, ok := iv(b, lane)
			if !ok || i >= bw {
				return 1, 1
			}
			va, vb := bs(b, lane)
			return va >> i & 1, vb >> i & 1
		}, width: want}

	case *verilog.PartSelect:
		base := bc.expr(x.X, 0)
		bw := base.width
		hi, lo, known := bc.bounds(x)
		if !known {
			return constOf(logic.AllX(want))
		}
		// verilog.SelectBits's two cases, told apart here by base's static width.
		if lo >= uint64(bw) {
			return constOf(verilog.SelectBits(logic.New(bw), hi, lo).Resize(want))
		}
		bs, h, l := base.w, int(hi), int(lo)
		return cexpr{w: func(b *BatchInstance, lane int32) (uint64, uint64) {
			va, vb := bs(b, lane)
			return logic.SliceWord(bw, va, vb, h, l)
		}, width: want}

	default:
		panic(unfoldable(x))
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
// mirror resolveLValue.
func (bc *batchCompiler) lvalue(lhs verilog.Expr) wLV {
	switch x := lhs.(type) {
	case *verilog.Ident:
		s, width := bc.narrowSlot(x)
		m := logic.Mask(width)
		return func(b *BatchInstance, lane int32, va, vb uint64, nb bool) {
			va, vb = va&m, vb&m
			if nb {
				b.queueNBA(lane, resolvedWrite{slot: s, val: logic.FromWord(width, va, vb), whole: true})
			} else {
				b.writeWord(lane, s, va, vb)
			}
		}

	case *verilog.Index:
		s, width := bc.narrowSlot(x.X)
		iv, w := bc.expr(x.Index, 0).uint64(), uint64(width)
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
		}

	case *verilog.PartSelect:
		s, width := bc.narrowSlot(x.X)
		hi, lo, known := bc.bounds(x)
		h, l, inRange := verilog.WriteSpan(hi, lo, width)
		if !known || !inRange {
			return lvNoop
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
		}

	case *verilog.Concat:
		total, static := verilog.LHSWidth(lhs, &bc.env)
		if !static || total > logic.WordBits {
			panic(unfoldable(x))
		}
		type part struct {
			lv wLV
			lo uint
			m  uint64
		}
		parts := make([]part, len(x.Parts))
		offset := total
		for i, p := range x.Parts {
			w, _ := verilog.LHSWidth(p, &bc.env) // static, since total is
			offset -= w
			parts[i] = part{lv: bc.lvalue(p), lo: uint(offset), m: logic.Mask(w)}
		}
		m := logic.Mask(total)
		return func(b *BatchInstance, lane int32, va, vb uint64, nb bool) {
			va, vb = va&m, vb&m
			for _, p := range parts {
				p.lv(b, lane, va>>p.lo&p.m, vb>>p.lo&p.m, nb)
			}
		}

	default:
		panic(unfoldable(x))
	}
}

// narrowSlot resolves the identifier an assignment target writes
// through to its slot and width, at most logic.WordBits.
func (bc *batchCompiler) narrowSlot(e verilog.Expr) (slot int32, width int) {
	id, ok := e.(*verilog.Ident)
	if !ok {
		panic(unfoldable(e))
	}
	s := bc.slot(id)
	if bc.d.wideOf[s] >= 0 {
		panic(unfoldable(e))
	}
	return s, bc.d.slotWidths[s]
}

// body compiles a process body: into folded closures when vstatic.Folds
// accepts it, else into a closure that runs exec on the lane. folded
// reports which.
func (bc *batchCompiler) body(s verilog.Stmt) (code bStmt, folded bool) {
	if vstatic.Folds(s, bc.env) {
		return bc.stmt(s), true
	}
	return func(b *BatchInstance, lane int32) error { return exec(&b.views[lane], s) }, false
}

// stmt compiles a statement vstatic.Folds accepts, mirroring exec.
func (bc *batchCompiler) stmt(s verilog.Stmt) bStmt {
	switch x := s.(type) {
	case nil, *verilog.Null:
		return bNoop

	case *verilog.Block:
		stmts := make([]bStmt, len(x.Stmts))
		for i, sub := range x.Stmts {
			stmts[i] = bc.stmt(sub)
		}
		return func(b *BatchInstance, lane int32) error {
			for _, st := range stmts {
				if err := st(b, lane); err != nil {
					return err
				}
			}
			return nil
		}

	case *verilog.Assign:
		ctx, _ := verilog.LHSWidth(x.LHS, &bc.env) // static: lvalue panics otherwise
		rw, lv, nb := bc.expr(x.RHS, ctx).w, bc.lvalue(x.LHS), x.NonBlocking
		return func(b *BatchInstance, lane int32) error {
			va, vb := rw(b, lane)
			lv(b, lane, va, vb, nb)
			return nil
		}

	case *verilog.If:
		truth, th := bc.expr(x.Cond, 0).truth(), bc.stmt(x.Then)
		var el bStmt
		if x.Else != nil {
			el = bc.stmt(x.Else)
		}
		return func(b *BatchInstance, lane int32) error {
			if truth(b, lane) == logic.L1 {
				return th(b, lane)
			}
			if el != nil {
				return el(b, lane)
			}
			return nil
		}

	case *verilog.Case:
		sel := bc.expr(x.Expr, 0)
		type caseArm struct {
			labels []wExpr
			body   bStmt
		}
		var arms []caseArm
		var deflt bStmt
		for _, item := range x.Items {
			body := bc.stmt(item.Body)
			if item.Exprs == nil {
				deflt = body
				continue
			}
			arm := caseArm{body: body}
			for _, e := range item.Exprs {
				arm.labels = append(arm.labels, bc.expr(e, 0).w)
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
		}

	case *verilog.For:
		init, cond := bc.stmt(x.Init), bc.expr(x.Cond, 0).truth()
		step, body := bc.stmt(x.Step), bc.stmt(x.Body)
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
		}

	case *verilog.Repeat:
		cnt, body := bc.expr(x.Count, 0).uint64(), bc.stmt(x.Body)
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
		}

	case *verilog.SysCall:
		// A no-op task never evaluates its arguments.
		if !verilog.NoOpTask(x.Name) {
			panic(unfoldable(x))
		}
		return bNoop

	default:
		panic(unfoldable(x))
	}
}
