package sim

import (
	"fmt"

	"correctbench/internal/logic"
	"correctbench/internal/verilog"
)

// env supplies signal values and widths to expression evaluation.
type env interface {
	readSignal(name string) (logic.Vector, error)
	signalWidth(name string) (int, bool)
}

// maxVectorWidth caps the width of a declared vector (rangeWidth), the
// span of a part-select and the width of a replication or
// concatenation: a wider select, replication or concatenation is an
// evaluation error, found before anything is sized, so no evaluation
// allocates past the cap.
const maxVectorWidth = 4096

// replCount checks the count nV of a replication of a w-bit value:
// known, at least 1, and giving a result within maxVectorWidth.
func replCount(nV logic.Vector, w int) (int, error) {
	n, ok := nV.Uint64()
	if !ok || n < 1 {
		return 0, fmt.Errorf("invalid replication count")
	}
	if replTooWide(n, w) {
		return 0, fmt.Errorf("replication {%d{%d bits}} is wider than %d bits", n, w, maxVectorWidth)
	}
	return int(n), nil
}

// replTooWide reports whether n >= 1 copies of a w-bit value span more
// than maxVectorWidth bits.
func replTooWide(n uint64, w int) bool {
	return n > maxVectorWidth || w > maxVectorWidth/int(n)
}

// concatWidth sums the widths width gives a concatenation's parts;
// static as for selfWidth. A sum past maxVectorWidth is an error.
func concatWidth(parts []verilog.Expr, en env, width func(verilog.Expr, env) (int, bool)) (total int, static bool, err error) {
	static = true
	for _, p := range parts {
		w, ok := width(p, en)
		total += w
		static = static && ok
	}
	if total > maxVectorWidth {
		return 0, false, fmt.Errorf("concatenation of %d bits is wider than %d bits", total, maxVectorWidth)
	}
	return total, static, nil
}

// selectSpan orders a part-select's known bounds [msb:lsb] as hi >= lo,
// and fails when the select spans more than maxVectorWidth bits.
func selectSpan(msb, lsb uint64) (hi, lo uint64, err error) {
	hi, lo = msb, lsb
	if hi < lo {
		hi, lo = lo, hi
	}
	if hi-lo >= maxVectorWidth {
		return 0, 0, fmt.Errorf("part-select [%d:%d] is wider than %d bits", msb, lsb, maxVectorWidth)
	}
	return hi, lo, nil
}

// selectBits reads bits [hi:lo] of v, a span selectSpan accepted; bits
// past v's width read X.
func selectBits(v logic.Vector, hi, lo uint64) logic.Vector {
	if lo >= uint64(v.Width()) {
		return logic.AllX(int(hi-lo) + 1)
	}
	return logic.Slice(v, int(hi), int(lo))
}

// writeSpan clips a part-select write's span [hi:lo], as selectSpan
// returns it, to a signal of width bits; ok is false when no bit of the
// span is in range.
func writeSpan(hi, lo uint64, width int) (h, l int, ok bool) {
	if lo >= uint64(width) {
		return 0, 0, false
	}
	if hi >= uint64(width) {
		hi = uint64(width) - 1
	}
	return int(hi), int(lo), true
}

// selfWidth computes the self-determined width of an expression,
// following IEEE 1364 table 5-22. Unknown identifiers report width 1;
// evaluation will fail on them with a proper error. static reports
// whether every replication count and part-select bound met could be
// evaluated (constUint) — one that could not counts as 0 — and every
// part-select, replication and concatenation is within maxVectorWidth;
// one that is not counts as 1 bit, and evaluating it fails.
func selfWidth(e verilog.Expr, en env) (w int, static bool) {
	switch x := e.(type) {
	case *verilog.Number:
		if x.Width == 0 {
			return 32, true
		}
		return x.Width, true
	case *verilog.StringLit:
		return 8 * len(x.Value), true
	case *verilog.Ident:
		if w, ok := en.signalWidth(x.Name); ok {
			return w, true
		}
		return 1, true
	case *verilog.Unary:
		if _, sz, _ := logic.UnaryOp(x.Op); sz == logic.SizeContext {
			return selfWidth(x.X, en)
		}
		return 1, true // reductions, ! and unknown operators
	case *verilog.Binary:
		switch _, sz, _ := logic.BinaryOp(x.Op); sz {
		case logic.SizeContext:
			return maxWidth(x.X, x.Y, en)
		case logic.SizeLeftContext:
			return selfWidth(x.X, en)
		}
		return 1, true // comparisons, logical and unknown operators
	case *verilog.Ternary:
		return maxWidth(x.Then, x.Else, en)
	case *verilog.Concat:
		total, static, err := concatWidth(x.Parts, en, selfWidth)
		if err != nil {
			return 1, false
		}
		return max(total, 1), static
	case *verilog.Repl:
		n, ok1 := constUint(x.Count, en)
		if n < 1 {
			n = 1
		}
		w, ok2 := selfWidth(x.Value, en)
		if replTooWide(n, w) {
			return 1, false
		}
		return int(n) * w, ok1 && ok2
	case *verilog.Index:
		return 1, true
	case *verilog.PartSelect:
		msb, ok1 := constUint(x.MSB, en)
		lsb, ok2 := constUint(x.LSB, en)
		hi, lo, err := selectSpan(msb, lsb)
		if err != nil {
			return 1, false
		}
		return int(hi-lo) + 1, ok1 && ok2
	default:
		return 1, true
	}
}

// maxWidth is the wider of two operands' self-determined widths.
func maxWidth(a, b verilog.Expr, en env) (int, bool) {
	l, ok1 := selfWidth(a, en)
	r, ok2 := selfWidth(b, en)
	if r > l {
		l = r
	}
	return l, ok1 && ok2
}

// lhsWidth computes the width of an assignment target, used as context
// width of the RHS; static as for selfWidth.
func lhsWidth(lhs verilog.Expr, en env) (w int, static bool) {
	switch x := lhs.(type) {
	case *verilog.Ident, *verilog.PartSelect:
		return selfWidth(lhs, en)
	case *verilog.Concat:
		total, static, err := concatWidth(x.Parts, en, lhsWidth)
		if err != nil {
			return 1, false
		}
		return total, static
	default: // bit selects and invalid targets
		return 1, true
	}
}

// constUint evaluates an expression that should be constant in context
// (replication counts, part-select bounds); 0 on failure — the caller
// reports the error during real evaluation. ok reports whether the
// evaluation succeeded; an unknown value is 0 but still ok.
func constUint(e verilog.Expr, en env) (u uint64, ok bool) {
	v, err := evalExpr(e, en, 0)
	if err != nil {
		return 0, false
	}
	if u, known := v.Uint64(); known {
		return u, true
	}
	return 0, true
}

// evalExpr evaluates e. ctx is the context width imposed by the
// surrounding assignment or operation; 0 means self-determined. The
// result always has width max(ctx, selfWidth).
func evalExpr(e verilog.Expr, en env, ctx int) (logic.Vector, error) {
	want, _ := selfWidth(e, en)
	if ctx > want {
		want = ctx
	}
	switch x := e.(type) {
	case *verilog.Number:
		return x.Val.Resize(want), nil

	case *verilog.StringLit:
		return logic.Vector{}, fmt.Errorf("string literal in value context")

	case *verilog.Ident:
		v, err := en.readSignal(x.Name)
		if err != nil {
			return logic.Vector{}, err
		}
		return v.Resize(want), nil

	case *verilog.Unary:
		fn, sz, ok := logic.UnaryOp(x.Op)
		if !ok {
			return logic.Vector{}, fmt.Errorf("unsupported unary operator %q", x.Op)
		}
		operand, _ := sz.Operands(want)
		v, err := evalExpr(x.X, en, operand)
		if err != nil {
			return logic.Vector{}, err
		}
		return fn(v).Resize(want), nil

	case *verilog.Binary:
		fn, sz, ok := logic.BinaryOp(x.Op)
		if !ok {
			return logic.Vector{}, fmt.Errorf("unsupported binary operator %q", x.Op)
		}
		lctx, rctx := sz.Operands(want)
		l, err := evalExpr(x.X, en, lctx)
		if err != nil {
			return logic.Vector{}, err
		}
		r, err := evalExpr(x.Y, en, rctx)
		if err != nil {
			return logic.Vector{}, err
		}
		return fn(l, r).Resize(want), nil

	case *verilog.Ternary:
		c, err := evalExpr(x.Cond, en, 0)
		if err != nil {
			return logic.Vector{}, err
		}
		t, err := evalExpr(x.Then, en, want)
		if err != nil {
			return logic.Vector{}, err
		}
		f, err := evalExpr(x.Else, en, want)
		if err != nil {
			return logic.Vector{}, err
		}
		return logic.Mux(c, t, f).Resize(want), nil

	case *verilog.Concat:
		if _, _, err := concatWidth(x.Parts, en, selfWidth); err != nil {
			return logic.Vector{}, err
		}
		parts := make([]logic.Vector, len(x.Parts))
		for i, p := range x.Parts {
			v, err := evalExpr(p, en, 0)
			if err != nil {
				return logic.Vector{}, err
			}
			parts[i] = v
		}
		return logic.Concat(parts...).Resize(want), nil

	case *verilog.Repl:
		nV, err := evalExpr(x.Count, en, 0)
		if err != nil {
			return logic.Vector{}, err
		}
		w, _ := selfWidth(x.Value, en)
		n, err := replCount(nV, w)
		if err != nil {
			return logic.Vector{}, err
		}
		v, err := evalExpr(x.Value, en, 0)
		if err != nil {
			return logic.Vector{}, err
		}
		return logic.Replicate(n, v).Resize(want), nil

	case *verilog.Index:
		base, err := evalExpr(x.X, en, 0)
		if err != nil {
			return logic.Vector{}, err
		}
		idxV, err := evalExpr(x.Index, en, 0)
		if err != nil {
			return logic.Vector{}, err
		}
		idx, ok := idxV.Uint64()
		if !ok || idx >= uint64(base.Width()) {
			return logic.AllX(1).Resize(want), nil
		}
		return logic.Slice(base, int(idx), int(idx)).Resize(want), nil

	case *verilog.PartSelect:
		base, err := evalExpr(x.X, en, 0)
		if err != nil {
			return logic.Vector{}, err
		}
		hiV, err := evalExpr(x.MSB, en, 0)
		if err != nil {
			return logic.Vector{}, err
		}
		loV, err := evalExpr(x.LSB, en, 0)
		if err != nil {
			return logic.Vector{}, err
		}
		msb, ok1 := hiV.Uint64()
		lsb, ok2 := loV.Uint64()
		if !ok1 || !ok2 {
			return logic.AllX(want), nil
		}
		hi, lo, err := selectSpan(msb, lsb)
		if err != nil {
			return logic.Vector{}, err
		}
		return selectBits(base, hi, lo).Resize(want), nil

	default:
		return logic.Vector{}, fmt.Errorf("unsupported expression %T", e)
	}
}
