package verilog

// The expression rules every consumer of the IR shares: the
// simulator's interpreter, its batch compiler and elaborator, and the
// static analysis (internal/vstatic). Each rule has one definition
// here — the self-determined width (IEEE 1364 table 5-22), the
// evaluator, the 4,096-bit width cap and the case-arm match — so a
// constant the lint folds, a width the compiler resolves and a value
// the interpreter computes cannot disagree.

import (
	"errors"
	"fmt"

	"correctbench/internal/logic"
)

// Env supplies signal values and widths to expression evaluation.
type Env interface {
	Get(name string) (logic.Vector, error)
	SignalWidth(name string) (int, bool)
}

// ErrNotConstant is ConstEnv's error for a read of anything but a
// parameter.
var ErrNotConstant = errors.New("not a constant")

// ConstEnv is the Env of constant expressions: Params read as their
// values, and any other read fails with ErrNotConstant, so an
// expression that depends on a signal value does not evaluate and a
// width that does is not static. Width, when set, gives declared
// signals their widths for SelfWidth; a parameter shadows it.
type ConstEnv struct {
	Params map[string]logic.Vector
	Width  func(name string) (int, bool)
}

// Get reads a parameter.
func (c ConstEnv) Get(name string) (logic.Vector, error) {
	if v, ok := c.Params[name]; ok {
		return v, nil
	}
	return logic.Vector{}, ErrNotConstant
}

// SignalWidth is a parameter's width, else Width's answer.
func (c ConstEnv) SignalWidth(name string) (int, bool) {
	if v, ok := c.Params[name]; ok {
		return v.Width(), true
	}
	if c.Width == nil {
		return 0, false
	}
	return c.Width(name)
}

// MaxVectorWidth caps the width of a sized literal, a declared vector,
// the span of a part-select and the width of a replication or
// concatenation: a wider select, replication or concatenation is an
// evaluation error, found before anything is sized, so no evaluation
// allocates past the cap.
const MaxVectorWidth = 4096

// ReplCount checks the count nV of a replication of a w-bit value:
// known, at least 1, and giving a result within MaxVectorWidth.
func ReplCount(nV logic.Vector, w int) (int, error) {
	n, ok := nV.Uint64()
	if !ok || n < 1 {
		return 0, fmt.Errorf("invalid replication count")
	}
	if replTooWide(n, w) {
		return 0, fmt.Errorf("replication {%d{%d bits}} is wider than %d bits", n, w, MaxVectorWidth)
	}
	return int(n), nil
}

// replTooWide reports whether n >= 1 copies of a w-bit value span more
// than MaxVectorWidth bits.
func replTooWide(n uint64, w int) bool {
	return n > MaxVectorWidth || w > MaxVectorWidth/int(n)
}

// ConcatWidth sums the widths width gives a concatenation's parts;
// static as for SelfWidth. A sum past MaxVectorWidth is an error.
func ConcatWidth(parts []Expr, en Env, width func(Expr, Env) (int, bool)) (total int, static bool, err error) {
	static = true
	for _, p := range parts {
		w, ok := width(p, en)
		total += w
		static = static && ok
	}
	if total > MaxVectorWidth {
		return 0, false, fmt.Errorf("concatenation of %d bits is wider than %d bits", total, MaxVectorWidth)
	}
	return total, static, nil
}

// SelectSpan orders a part-select's known bounds [msb:lsb] as hi >= lo,
// and fails when the select spans more than MaxVectorWidth bits.
func SelectSpan(msb, lsb uint64) (hi, lo uint64, err error) {
	hi, lo = msb, lsb
	if hi < lo {
		hi, lo = lo, hi
	}
	if hi-lo >= MaxVectorWidth {
		return 0, 0, fmt.Errorf("part-select [%d:%d] is wider than %d bits", msb, lsb, MaxVectorWidth)
	}
	return hi, lo, nil
}

// SelectBits reads bits [hi:lo] of v, a span SelectSpan accepted; bits
// past v's width read X.
func SelectBits(v logic.Vector, hi, lo uint64) logic.Vector {
	if lo >= uint64(v.Width()) {
		return logic.AllX(int(hi-lo) + 1)
	}
	return logic.Slice(v, int(hi), int(lo))
}

// WriteSpan clips a part-select write's span [hi:lo], as SelectSpan
// returns it, to a signal of width bits; ok is false when no bit of the
// span is in range.
func WriteSpan(hi, lo uint64, width int) (h, l int, ok bool) {
	if lo >= uint64(width) {
		return 0, 0, false
	}
	if hi >= uint64(width) {
		hi = uint64(width) - 1
	}
	return int(hi), int(lo), true
}

// CaseMatch returns the rule a case arm's label matches the selector
// by under kind: exact four-state equality (case), Z as don't-care
// (casez), or X and Z as don't-care (casex).
func CaseMatch(kind CaseKind) func(sel, label logic.Vector) bool {
	switch kind {
	case CaseZ:
		return logic.CaseZMatch
	case CaseX:
		return logic.CaseXMatch
	}
	return logic.Vector.SameValue
}

// SelfWidth computes the self-determined width of an expression,
// following IEEE 1364 table 5-22. Unknown identifiers report width 1;
// evaluation will fail on them with a proper error. static reports
// whether every replication count and part-select bound met could be
// evaluated (constUint) — one that could not counts as 0 — and every
// part-select, replication and concatenation is within MaxVectorWidth;
// one that is not counts as 1 bit, and evaluating it fails. So a width
// that is not static is unknown.
func SelfWidth(e Expr, en Env) (w int, static bool) {
	switch x := e.(type) {
	case *Number:
		if x.Width == 0 {
			return 32, true
		}
		return x.Width, true
	case *StringLit:
		return 8 * len(x.Value), true
	case *Ident:
		if w, ok := en.SignalWidth(x.Name); ok {
			return w, true
		}
		return 1, true
	case *Unary:
		if _, sz, _ := logic.UnaryOp(x.Op); sz == logic.SizeContext {
			return SelfWidth(x.X, en)
		}
		return 1, true // reductions, ! and unknown operators
	case *Binary:
		switch _, sz, _ := logic.BinaryOp(x.Op); sz {
		case logic.SizeContext:
			return maxWidth(x.X, x.Y, en)
		case logic.SizeLeftContext:
			return SelfWidth(x.X, en)
		}
		return 1, true // comparisons, logical and unknown operators
	case *Ternary:
		return maxWidth(x.Then, x.Else, en)
	case *Concat:
		total, static, err := ConcatWidth(x.Parts, en, SelfWidth)
		if err != nil {
			return 1, false
		}
		return max(total, 1), static
	case *Repl:
		n, ok1 := constUint(x.Count, en)
		if n < 1 {
			n = 1
		}
		w, ok2 := SelfWidth(x.Value, en)
		if replTooWide(n, w) {
			return 1, false
		}
		return int(n) * w, ok1 && ok2
	case *Index:
		return 1, true
	case *PartSelect:
		msb, ok1 := constUint(x.MSB, en)
		lsb, ok2 := constUint(x.LSB, en)
		hi, lo, err := SelectSpan(msb, lsb)
		if err != nil {
			return 1, false
		}
		return int(hi-lo) + 1, ok1 && ok2
	default:
		return 1, true
	}
}

// maxWidth is the wider of two operands' self-determined widths.
func maxWidth(a, b Expr, en Env) (int, bool) {
	l, ok1 := SelfWidth(a, en)
	r, ok2 := SelfWidth(b, en)
	if r > l {
		l = r
	}
	return l, ok1 && ok2
}

// LHSWidth computes the width of an assignment target, used as context
// width of the RHS; static as for SelfWidth.
func LHSWidth(lhs Expr, en Env) (w int, static bool) {
	switch x := lhs.(type) {
	case *Ident, *PartSelect:
		return SelfWidth(lhs, en)
	case *Concat:
		total, static, err := ConcatWidth(x.Parts, en, LHSWidth)
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
func constUint(e Expr, en Env) (u uint64, ok bool) {
	v, err := Eval(e, en, 0)
	if err != nil {
		return 0, false
	}
	if u, known := v.Uint64(); known {
		return u, true
	}
	return 0, true
}

// Eval evaluates e. ctx is the context width imposed by the
// surrounding assignment or operation; 0 means self-determined. The
// result always has width max(ctx, SelfWidth).
func Eval(e Expr, en Env, ctx int) (logic.Vector, error) {
	want, _ := SelfWidth(e, en)
	if ctx > want {
		want = ctx
	}
	switch x := e.(type) {
	case *Number:
		return x.Val.Resize(want), nil

	case *StringLit:
		return logic.Vector{}, fmt.Errorf("string literal in value context")

	case *Ident:
		v, err := en.Get(x.Name)
		if err != nil {
			return logic.Vector{}, err
		}
		return v.Resize(want), nil

	case *Unary:
		fn, sz, ok := logic.UnaryOp(x.Op)
		if !ok {
			return logic.Vector{}, fmt.Errorf("unsupported unary operator %q", x.Op)
		}
		operand, _ := sz.Operands(want)
		v, err := Eval(x.X, en, operand)
		if err != nil {
			return logic.Vector{}, err
		}
		return fn(v).Resize(want), nil

	case *Binary:
		fn, sz, ok := logic.BinaryOp(x.Op)
		if !ok {
			return logic.Vector{}, fmt.Errorf("unsupported binary operator %q", x.Op)
		}
		lctx, rctx := sz.Operands(want)
		l, err := Eval(x.X, en, lctx)
		if err != nil {
			return logic.Vector{}, err
		}
		r, err := Eval(x.Y, en, rctx)
		if err != nil {
			return logic.Vector{}, err
		}
		return fn(l, r).Resize(want), nil

	case *Ternary:
		c, err := Eval(x.Cond, en, 0)
		if err != nil {
			return logic.Vector{}, err
		}
		t, err := Eval(x.Then, en, want)
		if err != nil {
			return logic.Vector{}, err
		}
		f, err := Eval(x.Else, en, want)
		if err != nil {
			return logic.Vector{}, err
		}
		return logic.Mux(c, t, f).Resize(want), nil

	case *Concat:
		if _, _, err := ConcatWidth(x.Parts, en, SelfWidth); err != nil {
			return logic.Vector{}, err
		}
		parts := make([]logic.Vector, len(x.Parts))
		for i, p := range x.Parts {
			v, err := Eval(p, en, 0)
			if err != nil {
				return logic.Vector{}, err
			}
			parts[i] = v
		}
		return logic.Concat(parts...).Resize(want), nil

	case *Repl:
		nV, err := Eval(x.Count, en, 0)
		if err != nil {
			return logic.Vector{}, err
		}
		w, _ := SelfWidth(x.Value, en)
		n, err := ReplCount(nV, w)
		if err != nil {
			return logic.Vector{}, err
		}
		v, err := Eval(x.Value, en, 0)
		if err != nil {
			return logic.Vector{}, err
		}
		return logic.Replicate(n, v).Resize(want), nil

	case *Index:
		base, err := Eval(x.X, en, 0)
		if err != nil {
			return logic.Vector{}, err
		}
		idxV, err := Eval(x.Index, en, 0)
		if err != nil {
			return logic.Vector{}, err
		}
		idx, ok := idxV.Uint64()
		if !ok || idx >= uint64(base.Width()) {
			return logic.AllX(1).Resize(want), nil
		}
		return logic.Slice(base, int(idx), int(idx)).Resize(want), nil

	case *PartSelect:
		base, err := Eval(x.X, en, 0)
		if err != nil {
			return logic.Vector{}, err
		}
		hiV, err := Eval(x.MSB, en, 0)
		if err != nil {
			return logic.Vector{}, err
		}
		loV, err := Eval(x.LSB, en, 0)
		if err != nil {
			return logic.Vector{}, err
		}
		msb, ok1 := hiV.Uint64()
		lsb, ok2 := loV.Uint64()
		if !ok1 || !ok2 {
			return logic.AllX(want), nil
		}
		hi, lo, err := SelectSpan(msb, lsb)
		if err != nil {
			return logic.Vector{}, err
		}
		return SelectBits(base, hi, lo).Resize(want), nil

	default:
		return logic.Vector{}, fmt.Errorf("unsupported expression %T", e)
	}
}
