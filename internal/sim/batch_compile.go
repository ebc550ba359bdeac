package sim

// Per-lane compilation for the batch engine.
//
// Process bodies compile into closures that take a (BatchInstance,
// lane) pair and read and write the [slot*n + lane] state block.
// Expressions compile to one of two closure kinds, chosen by their
// static width: an expression at most 64 bits wide — nearly all of
// them — to a word closure (wExpr) returning its value's aval/bval
// words, read straight from the uint64 planes and combined by the word
// kernels of the operator table (logic.BinaryOp and logic.UnaryOp's
// word column, the same kernels the logic.Vector operators call on
// their narrow branch); a wider one to a Vector closure (bExpr). A
// narrow node over a wide operand, or a wide node over a narrow one,
// converts at that edge (cexpr.word, cexpr.vec). Assignment targets
// split the same way by their slot's width (wLV, vLV). Zero extension
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

// wExpr evaluates an expression at most 64 bits wide for one lane, as
// the aval/bval words of its value, zero above its width. Like bExpr it
// cannot fail at run time.
type wExpr func(b *BatchInstance, lane int32) (va, vb uint64)

// bExpr evaluates an expression wider than 64 bits for one lane; it
// cannot fail at runtime (everything fallible is resolved at compile
// time).
type bExpr func(b *BatchInstance, lane int32) logic.Vector

// cexpr is a compiled expression of the given width: a word closure
// when the width is at most 64, else a Vector closure.
type cexpr struct {
	w     wExpr
	v     bExpr
	width int
}

// word returns c as a word closure; a Vector closure is read through
// its low word, which is the whole value or, for a consumer that cuts
// it to 64 bits or fewer, the part that consumer keeps.
func (c cexpr) word() wExpr {
	if c.w != nil {
		return c.w
	}
	v := c.v
	return func(b *BatchInstance, lane int32) (uint64, uint64) { return v(b, lane).LowWord() }
}

// vec returns c as a Vector closure.
func (c cexpr) vec() bExpr {
	if c.v != nil {
		return c.v
	}
	w, width := c.w, c.width
	return func(b *BatchInstance, lane int32) logic.Vector {
		va, vb := w(b, lane)
		return logic.FromWord(width, va, vb)
	}
}

// truth returns a closure giving c's logic.Truth.
func (c cexpr) truth() func(b *BatchInstance, lane int32) logic.Bit {
	if w := c.w; w != nil {
		return func(b *BatchInstance, lane int32) logic.Bit { return logic.TruthWord(w(b, lane)) }
	}
	v := c.v
	return func(b *BatchInstance, lane int32) logic.Bit { return logic.Truth(v(b, lane)) }
}

// uint64 returns a closure giving c's value as Vector.Uint64 does.
func (c cexpr) uint64() func(b *BatchInstance, lane int32) (uint64, bool) {
	if w := c.w; w != nil {
		return func(b *BatchInstance, lane int32) (uint64, bool) {
			va, vb := w(b, lane)
			return va, vb == 0
		}
	}
	v := c.v
	return func(b *BatchInstance, lane int32) (uint64, bool) { return v(b, lane).Uint64() }
}

// wordOf makes the cexpr of a word closure yielding a natural-bit value
// at width want >= natural: zero extension leaves the words as they
// are, and past 64 bits the Vector form is resized.
func wordOf(f wExpr, natural, want int) cexpr {
	if want <= wordBits {
		return cexpr{w: f, width: want}
	}
	return vecOf(cexpr{w: f, width: natural}.vec(), natural, want)
}

// vecOf makes the cexpr of a Vector closure yielding a natural-bit
// value at width want >= natural.
func vecOf(f bExpr, natural, want int) cexpr {
	if want <= wordBits {
		return cexpr{w: cexpr{v: f}.word(), width: want}
	}
	if natural != want {
		g := f
		f = func(b *BatchInstance, lane int32) logic.Vector { return g(b, lane).Resize(want) }
	}
	return cexpr{v: f, width: want}
}

// constOf is the cexpr of a constant.
func constOf(v logic.Vector) cexpr {
	if v.Width() <= wordBits {
		va, vb := v.LowWord()
		return cexpr{w: func(*BatchInstance, int32) (uint64, uint64) { return va, vb }, width: v.Width()}
	}
	return cexpr{v: func(*BatchInstance, int32) logic.Vector { return v }, width: v.Width()}
}

// wordBits is the widest value a word closure or a plane slot holds.
const wordBits = 64

// wLV applies an already-evaluated RHS value, given as words, to an
// lvalue whose target slot is at most 64 bits wide, for one lane,
// writing through (blocking) or queueing on the lane's NBA list. It
// cuts the value to the target's width itself, so bits above it may be
// anything.
type wLV func(b *BatchInstance, lane int32, va, vb uint64, nb bool)

// vLV is the same for a target wider than 64 bits, given a Vector.
type vLV func(b *BatchInstance, lane int32, val logic.Vector, nb bool)

// clv is a compiled lvalue: exactly one of w and v is set.
type clv struct {
	w wLV
	v vLV
}

// vec returns l as a vLV.
func (l clv) vec() vLV {
	if l.v != nil {
		return l.v
	}
	w := l.w
	return func(b *BatchInstance, lane int32, val logic.Vector, nb bool) {
		va, vb := val.LowWord()
		w(b, lane, va, vb, nb)
	}
}

// word returns l as a wLV for values of width bits (at most 64).
func (l clv) word(width int) wLV {
	if l.w != nil {
		return l.w
	}
	v, m := l.v, logic.Mask(width)
	return func(b *BatchInstance, lane int32, va, vb uint64, nb bool) {
		v(b, lane, logic.FromWord(width, va&m, vb&m), nb)
	}
}

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
// verilog.Eval does: a word closure when that width is at most 64, a
// Vector closure otherwise. A node narrow enough for a word closure
// whose operand is wider runs the Vector kernel on that operand and
// reads the result's low word.
func (bc *batchCompiler) expr(e verilog.Expr, ctx int) (cexpr, error) {
	self, static := verilog.SelfWidth(e, bc.env)
	if !static {
		return cexpr{}, errDynamic
	}
	want := max(self, ctx)
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
		s, sw := int32(slot), bc.d.slotWidths[slot]
		if wi := bc.d.wideOf[slot]; wi >= 0 {
			return vecOf(func(b *BatchInstance, lane int32) logic.Vector {
				return b.wide[int(wi)*b.n+int(lane)]
			}, sw, want), nil
		}
		return wordOf(func(b *BatchInstance, lane int32) (uint64, uint64) {
			i := int(s)*b.n + int(lane)
			return b.wa[i], b.wb[i]
		}, sw, want), nil

	case *verilog.Unary:
		fn, wfn, sz, ok := logic.UnaryOp(x.Op)
		if !ok {
			return cexpr{}, errDynamic
		}
		operand, _ := sz.Operands(want)
		c, err := bc.expr(x.X, operand)
		if err != nil {
			return cexpr{}, err
		}
		rw := sz.Result(want)
		if c.w != nil && want <= wordBits {
			v, ow := c.w, c.width
			return cexpr{w: func(b *BatchInstance, lane int32) (uint64, uint64) {
				va, vb := v(b, lane)
				return wfn(ow, va, vb)
			}, width: want}, nil
		}
		v := c.vec()
		return vecOf(func(b *BatchInstance, lane int32) logic.Vector { return fn(v(b, lane)) }, rw, want), nil

	case *verilog.Binary:
		fn, wfn, sz, ok := logic.BinaryOp(x.Op)
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
		rw := sz.Result(want)
		if l.w != nil && r.w != nil && want <= wordBits {
			kw := l.width // the width the kernel computes at (logic.WordBinary)
			if sz == logic.SizeSelf {
				kw = max(l.width, r.width)
			}
			return cexpr{w: binaryWord(wfn, kw, l.w, r.w), width: want}, nil
		}
		lv, rv := l.vec(), r.vec()
		return vecOf(func(b *BatchInstance, lane int32) logic.Vector { return fn(lv(b, lane), rv(b, lane)) }, rw, want), nil

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
		truth := cond.truth()
		if want <= wordBits {
			tw, ew := th.w, el.w
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
		}
		c, tv, ev := cond.vec(), th.vec(), el.vec()
		return cexpr{v: func(b *BatchInstance, lane int32) logic.Vector {
			return logic.Mux(c(b, lane), tv(b, lane), ev(b, lane))
		}, width: want}, nil

	case *verilog.Concat:
		parts := make([]cexpr, len(x.Parts))
		for i, p := range x.Parts {
			pc, err := bc.expr(p, 0)
			if err != nil {
				return cexpr{}, err
			}
			parts[i] = pc
		}
		total := self
		if total <= wordBits && len(parts) > 0 {
			// Every part is a word: shift each in below the ones before.
			ws := make([]wExpr, len(parts))
			shifts := make([]uint, len(parts))
			for i, pc := range parts {
				ws[i], shifts[i] = pc.w, uint(pc.width)
			}
			return wordOf(func(b *BatchInstance, lane int32) (uint64, uint64) {
				var ra, rb uint64
				for i, pw := range ws {
					va, vb := pw(b, lane)
					ra, rb = ra<<shifts[i]|va, rb<<shifts[i]|vb
				}
				return ra, rb
			}, total, want), nil
		}
		vs := make([]bExpr, len(parts))
		for i, pc := range parts {
			vs[i] = pc.vec()
		}
		return vecOf(func(b *BatchInstance, lane int32) logic.Vector {
			vals := make([]logic.Vector, len(vs))
			for i, pv := range vs {
				vals[i] = pv(b, lane)
			}
			return logic.Concat(vals...)
		}, total, want), nil

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
		if vw := c.width; n*vw <= wordBits {
			v := c.w
			return wordOf(func(b *BatchInstance, lane int32) (uint64, uint64) {
				va, vb := v(b, lane)
				return logic.ReplicateWord(n, vw, va, vb)
			}, n*vw, want), nil
		}
		v := c.vec()
		return vecOf(func(b *BatchInstance, lane int32) logic.Vector {
			return logic.Replicate(n, v(b, lane))
		}, n*c.width, want), nil

	case *verilog.Index:
		base, err := bc.expr(x.X, 0)
		if err != nil {
			return cexpr{}, err
		}
		idx, err := bc.expr(x.Index, 0)
		if err != nil {
			return cexpr{}, err
		}
		iv, bw := idx.uint64(), uint64(base.width)
		// An unknown or out-of-range index reads 1'bx.
		if bs := base.w; bs != nil {
			return wordOf(func(b *BatchInstance, lane int32) (uint64, uint64) {
				i, ok := iv(b, lane)
				if !ok || i >= bw {
					return 1, 1
				}
				va, vb := bs(b, lane)
				return va >> i & 1, vb >> i & 1
			}, 1, want), nil
		}
		bv := base.v
		return wordOf(func(b *BatchInstance, lane int32) (uint64, uint64) {
			i, ok := iv(b, lane)
			if !ok || i >= bw {
				return 1, 1
			}
			bit := uint64(bv(b, lane).Bit(int(i)))
			return bit & 1, bit >> 1
		}, 1, want), nil

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
		h, l := int(hi), int(lo)
		if bs := base.w; bs != nil && self <= wordBits {
			return wordOf(func(b *BatchInstance, lane int32) (uint64, uint64) {
				va, vb := bs(b, lane)
				return logic.SliceWord(bw, va, vb, h, l)
			}, self, want), nil
		}
		bv := base.vec()
		return vecOf(func(b *BatchInstance, lane int32) logic.Vector {
			return logic.Slice(bv(b, lane), h, l)
		}, self, want), nil

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

// write performs w on a lane, or with nb queues it on the lane's NBA
// list.
func (b *BatchInstance) write(lane int32, w resolvedWrite, nb bool) {
	if nb {
		b.nba[lane] = append(b.nba[lane], w)
	} else {
		b.applyWrite(lane, w)
	}
}

// lvalue compiles an assignment target. The spans and clamping
// mirror resolveLValue. A target in a slot at most 64 bits wide takes
// words (wLV), one in a wider slot a Vector (vLV); a concatenation
// takes words when its total width is at most 64.
func (bc *batchCompiler) lvalue(lhs verilog.Expr) (clv, error) {
	switch x := lhs.(type) {
	case *verilog.Ident:
		slot, ok := bc.d.slotOf[x.Name]
		if !ok {
			return clv{}, errDynamic
		}
		width := bc.d.slotWidths[slot]
		s := int32(slot)
		if bc.d.wideOf[slot] >= 0 {
			return clv{v: func(b *BatchInstance, lane int32, val logic.Vector, nb bool) {
				b.write(lane, resolvedWrite{slot: s, val: val.Resize(width), whole: true}, nb)
			}}, nil
		}
		m := logic.Mask(width)
		return clv{w: func(b *BatchInstance, lane int32, va, vb uint64, nb bool) {
			va, vb = va&m, vb&m
			if nb {
				b.write(lane, resolvedWrite{slot: s, val: logic.FromWord(width, va, vb), whole: true}, true)
			} else {
				b.writeWord(lane, s, va, vb)
			}
		}}, nil

	case *verilog.Index:
		id, ok := x.X.(*verilog.Ident)
		if !ok {
			return clv{}, errDynamic
		}
		slot, ok2 := bc.d.slotOf[id.Name]
		if !ok2 {
			return clv{}, errDynamic
		}
		width := uint64(bc.d.slotWidths[slot])
		idx, err := bc.expr(x.Index, 0)
		if err != nil {
			return clv{}, err
		}
		iv := idx.uint64()
		s := int32(slot)
		// A write through an unknown or out-of-range index is a no-op.
		if bc.d.wideOf[slot] >= 0 {
			return clv{v: func(b *BatchInstance, lane int32, val logic.Vector, nb bool) {
				i, ok := iv(b, lane)
				if !ok || i >= width {
					return
				}
				b.write(lane, resolvedWrite{slot: s, hi: int(i), lo: int(i), val: val.Resize(1)}, nb)
			}}, nil
		}
		return clv{w: func(b *BatchInstance, lane int32, va, vb uint64, nb bool) {
			i, ok := iv(b, lane)
			if !ok || i >= width {
				return
			}
			if nb {
				b.write(lane, resolvedWrite{slot: s, hi: int(i), lo: int(i), val: logic.FromWord(1, va&1, vb&1)}, true)
			} else {
				b.writeSpan(lane, s, int(i), int(i), va&1, vb&1)
			}
		}}, nil

	case *verilog.PartSelect:
		id, ok := x.X.(*verilog.Ident)
		if !ok {
			return clv{}, errDynamic
		}
		slot, ok2 := bc.d.slotOf[id.Name]
		if !ok2 {
			return clv{}, errDynamic
		}
		width := bc.d.slotWidths[slot]
		hiV, errHi := verilog.Eval(x.MSB, bc.env, 0)
		loV, errLo := verilog.Eval(x.LSB, bc.env, 0)
		if errHi != nil || errLo != nil {
			return clv{}, errDynamic
		}
		msb, ok3 := hiV.Uint64()
		lsb, ok4 := loV.Uint64()
		if !ok3 || !ok4 {
			return clv{w: lvNoop}, nil
		}
		hi, lo, err := verilog.SelectSpan(msb, lsb)
		if err != nil {
			return clv{}, errDynamic // resolveLValue reports it
		}
		h, l, inRange := verilog.WriteSpan(hi, lo, width)
		if !inRange {
			return clv{w: lvNoop}, nil
		}
		s, span := int32(slot), h-l+1
		if bc.d.wideOf[slot] >= 0 {
			return clv{v: func(b *BatchInstance, lane int32, val logic.Vector, nb bool) {
				b.write(lane, resolvedWrite{slot: s, hi: h, lo: l, val: val.Resize(span)}, nb)
			}}, nil
		}
		m := logic.Mask(span)
		return clv{w: func(b *BatchInstance, lane int32, va, vb uint64, nb bool) {
			va, vb = va&m, vb&m
			if nb {
				b.write(lane, resolvedWrite{slot: s, hi: h, lo: l, val: logic.FromWord(span, va, vb)}, true)
			} else {
				b.writeSpan(lane, s, h, l, va, vb)
			}
		}}, nil

	case *verilog.Concat:
		total, static := verilog.LHSWidth(lhs, bc.env)
		if !static {
			return clv{}, errDynamic
		}
		type part struct {
			lv     clv
			hi, lo int
		}
		parts := make([]part, 0, len(x.Parts))
		offset := total
		for _, p := range x.Parts {
			w, _ := verilog.LHSWidth(p, bc.env) // static, since total is
			offset -= w
			lv, err := bc.lvalue(p)
			if err != nil {
				return clv{}, err
			}
			parts = append(parts, part{lv: lv, hi: offset + w - 1, lo: offset})
		}
		if total <= wordBits {
			type wpart struct {
				lv    wLV
				lo    uint
				width int
			}
			wparts := make([]wpart, len(parts))
			for i, p := range parts {
				pw := p.hi - p.lo + 1
				wparts[i] = wpart{lv: p.lv.word(pw), lo: uint(p.lo), width: pw}
			}
			m := logic.Mask(total)
			return clv{w: func(b *BatchInstance, lane int32, va, vb uint64, nb bool) {
				va, vb = va&m, vb&m
				for _, p := range wparts {
					pm := logic.Mask(p.width)
					p.lv(b, lane, va>>p.lo&pm, vb>>p.lo&pm, nb)
				}
			}}, nil
		}
		vparts := make([]vLV, len(parts))
		for i, p := range parts {
			vparts[i] = p.lv.vec()
		}
		return clv{v: func(b *BatchInstance, lane int32, val logic.Vector, nb bool) {
			vt := val.Resize(total)
			for i, p := range parts {
				vparts[i](b, lane, logic.Slice(vt, p.hi, p.lo), nb)
			}
		}}, nil

	default:
		return clv{}, errDynamic
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
		rhs, err := bc.expr(x.RHS, ctx)
		if err != nil {
			return nil, err
		}
		lv, err := bc.lvalue(x.LHS)
		if err != nil {
			return nil, err
		}
		nb := x.NonBlocking
		if lw := lv.w; lw != nil {
			rw := rhs.word()
			return func(b *BatchInstance, lane int32) error {
				va, vb := rw(b, lane)
				lw(b, lane, va, vb, nb)
				return nil
			}, nil
		}
		lvv, rv := lv.v, rhs.vec()
		return func(b *BatchInstance, lane int32) error {
			lvv(b, lane, rv(b, lane), nb)
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
			labels []cexpr
			body   bStmt
		}
		var arms []caseArm
		var deflt bStmt
		words := sel.w != nil // every label and the selector are words
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
				words = words && ce.w != nil
				arm.labels = append(arm.labels, ce)
			}
			arms = append(arms, arm)
		}
		if words {
			sw, match := sel.w, verilog.CaseMatchWord(x.Kind)
			return func(b *BatchInstance, lane int32) error {
				sa, sb := sw(b, lane)
				for _, arm := range arms {
					for _, le := range arm.labels {
						if la, lb := le.w(b, lane); match(sa, sb, la, lb) {
							return arm.body(b, lane)
						}
					}
				}
				if deflt != nil {
					return deflt(b, lane)
				}
				return nil
			}, nil
		}
		for _, arm := range arms {
			for i, le := range arm.labels {
				arm.labels[i] = cexpr{v: le.vec(), width: le.width}
			}
		}
		sv, match := sel.vec(), verilog.CaseMatch(x.Kind)
		return func(b *BatchInstance, lane int32) error {
			s := sv(b, lane)
			for _, arm := range arms {
				for _, le := range arm.labels {
					if match(s, le.v(b, lane)) {
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
