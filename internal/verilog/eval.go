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

// CaseMatchWord is CaseMatch for a selector and label both at most 64
// bits wide, given as their plane words: equal words are the same
// value (SameValue) at any pair of such widths.
func CaseMatchWord(kind CaseKind) func(sa, sb, la, lb uint64) bool {
	switch kind {
	case CaseZ:
		return logic.CaseZMatchWord
	case CaseX:
		return logic.CaseXMatchWord
	}
	return sameWord
}

func sameWord(sa, sb, la, lb uint64) bool { return sa == la && sb == lb }

// SelfWidth computes the self-determined width of an expression,
// following IEEE 1364 table 5-22. Unknown identifiers report width 1;
// evaluation will fail on them with a proper error. static reports
// whether every replication count and part-select bound met could be
// evaluated (constUint) — one that could not counts as 0 — and every
// part-select, replication and concatenation is within MaxVectorWidth;
// one that is not counts as 1 bit, and evaluating it fails. So a width
// that is not static is unknown.
func SelfWidth(e Expr, en Env) (w int, static bool) {
	ev := evaluator{en: en}
	return ev.selfWidth(e)
}

// evaluator sizes and evaluates the expressions of one SelfWidth or
// Eval call. It remembers the value of each compound replication count
// and part-select bound it evaluates, so sizing a node and then
// evaluating it — at every level of a count nested in a count —
// evaluates each such count once: the work is linear in the nesting
// depth, not exponential. Within one call no signal changes, so a
// remembered value stays right.
type evaluator struct {
	en     Env
	counts map[Expr]countVal
}

// countVal is a remembered count or bound: its value or its error.
type countVal struct {
	v   logic.Vector
	err error
}

// count evaluates a replication count or part-select bound, self-
// determined, remembering it when it is compound (a literal or a name
// costs no more to evaluate again).
func (ev *evaluator) count(e Expr) (logic.Vector, error) {
	switch e.(type) {
	case *Number, *Ident:
		return ev.eval(e, 0)
	}
	if c, ok := ev.counts[e]; ok {
		return c.v, c.err
	}
	v, err := ev.eval(e, 0)
	if ev.counts == nil {
		ev.counts = make(map[Expr]countVal)
	}
	ev.counts[e] = countVal{v, err}
	return v, err
}

// partWidth is selfWidth in ConcatWidth's callback form.
func (ev *evaluator) partWidth(e Expr, _ Env) (int, bool) { return ev.selfWidth(e) }

func (ev *evaluator) selfWidth(e Expr) (w int, static bool) {
	switch x := e.(type) {
	case *Number:
		if x.Width == 0 {
			return 32, true
		}
		return x.Width, true
	case *StringLit:
		return 8 * len(x.Value), true
	case *Ident:
		if w, ok := ev.en.SignalWidth(x.Name); ok {
			return w, true
		}
		return 1, true
	case *Unary:
		if _, _, sz, _ := logic.UnaryOp(x.Op); sz == logic.SizeContext {
			return ev.selfWidth(x.X)
		}
		return 1, true // reductions, ! and unknown operators
	case *Binary:
		switch _, _, sz, _ := logic.BinaryOp(x.Op); sz {
		case logic.SizeContext:
			return ev.maxWidth(x.X, x.Y)
		case logic.SizeLeftContext:
			return ev.selfWidth(x.X)
		}
		return 1, true // comparisons, logical and unknown operators
	case *Ternary:
		return ev.maxWidth(x.Then, x.Else)
	case *Concat:
		total, static, err := ConcatWidth(x.Parts, ev.en, ev.partWidth)
		if err != nil {
			return 1, false
		}
		return max(total, 1), static
	case *Repl:
		n, ok1 := ev.constUint(x.Count)
		if n < 1 {
			n = 1
		}
		w, ok2 := ev.selfWidth(x.Value)
		if replTooWide(n, w) {
			return 1, false
		}
		return int(n) * w, ok1 && ok2
	case *Index:
		return 1, true
	case *PartSelect:
		msb, ok1 := ev.constUint(x.MSB)
		lsb, ok2 := ev.constUint(x.LSB)
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
func (ev *evaluator) maxWidth(a, b Expr) (int, bool) {
	l, ok1 := ev.selfWidth(a)
	r, ok2 := ev.selfWidth(b)
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
func (ev *evaluator) constUint(e Expr) (u uint64, ok bool) {
	v, err := ev.count(e)
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
	ev := evaluator{en: en}
	return ev.eval(e, ctx)
}

func (ev *evaluator) eval(e Expr, ctx int) (logic.Vector, error) {
	want, _ := ev.selfWidth(e)
	if ctx > want {
		want = ctx
	}
	switch x := e.(type) {
	case *Number:
		return x.Val.Resize(want), nil

	case *StringLit:
		return logic.Vector{}, fmt.Errorf("string literal in value context")

	case *Ident:
		v, err := ev.en.Get(x.Name)
		if err != nil {
			return logic.Vector{}, err
		}
		return v.Resize(want), nil

	case *Unary:
		fn, _, sz, ok := logic.UnaryOp(x.Op)
		if !ok {
			return logic.Vector{}, fmt.Errorf("unsupported unary operator %q", x.Op)
		}
		operand, _ := sz.Operands(want)
		v, err := ev.eval(x.X, operand)
		if err != nil {
			return logic.Vector{}, err
		}
		return fn(v).Resize(want), nil

	case *Binary:
		fn, _, sz, ok := logic.BinaryOp(x.Op)
		if !ok {
			return logic.Vector{}, fmt.Errorf("unsupported binary operator %q", x.Op)
		}
		lctx, rctx := sz.Operands(want)
		l, err := ev.eval(x.X, lctx)
		if err != nil {
			return logic.Vector{}, err
		}
		r, err := ev.eval(x.Y, rctx)
		if err != nil {
			return logic.Vector{}, err
		}
		return fn(l, r).Resize(want), nil

	case *Ternary:
		c, err := ev.eval(x.Cond, 0)
		if err != nil {
			return logic.Vector{}, err
		}
		t, err := ev.eval(x.Then, want)
		if err != nil {
			return logic.Vector{}, err
		}
		f, err := ev.eval(x.Else, want)
		if err != nil {
			return logic.Vector{}, err
		}
		return logic.Mux(c, t, f).Resize(want), nil

	case *Concat:
		if _, _, err := ConcatWidth(x.Parts, ev.en, ev.partWidth); err != nil {
			return logic.Vector{}, err
		}
		parts := make([]logic.Vector, len(x.Parts))
		for i, p := range x.Parts {
			v, err := ev.eval(p, 0)
			if err != nil {
				return logic.Vector{}, err
			}
			parts[i] = v
		}
		return logic.Concat(parts...).Resize(want), nil

	case *Repl:
		nV, err := ev.count(x.Count)
		if err != nil {
			return logic.Vector{}, err
		}
		w, _ := ev.selfWidth(x.Value)
		n, err := ReplCount(nV, w)
		if err != nil {
			return logic.Vector{}, err
		}
		v, err := ev.eval(x.Value, 0)
		if err != nil {
			return logic.Vector{}, err
		}
		return logic.Replicate(n, v).Resize(want), nil

	case *Index:
		base, err := ev.eval(x.X, 0)
		if err != nil {
			return logic.Vector{}, err
		}
		idxV, err := ev.eval(x.Index, 0)
		if err != nil {
			return logic.Vector{}, err
		}
		idx, ok := idxV.Uint64()
		if !ok || idx >= uint64(base.Width()) {
			return logic.AllX(1).Resize(want), nil
		}
		return logic.Slice(base, int(idx), int(idx)).Resize(want), nil

	case *PartSelect:
		base, err := ev.eval(x.X, 0)
		if err != nil {
			return logic.Vector{}, err
		}
		hiV, err := ev.count(x.MSB)
		if err != nil {
			return logic.Vector{}, err
		}
		loV, err := ev.count(x.LSB)
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
