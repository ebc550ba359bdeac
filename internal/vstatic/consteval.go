package vstatic

import (
	"correctbench/internal/logic"
	"correctbench/internal/verilog"
)

// ConstEnv resolves names to compile-time constants (parameters and
// localparams). A nil map resolves nothing.
type ConstEnv map[string]logic.Vector

// constEval evaluates e when it is a constant expression under env.
// Operators resolve through the engine's operator table
// (logic.BinaryOp, logic.UnaryOp), which gives both the kernel and the
// width each operand is evaluated at, so operators fold as the engine
// evaluates them. The bool result reports whether the expression
// was constant; non-constant subexpressions (signal reads, unsupported
// forms) make the whole evaluation fail, which callers must treat as
// "unknown", never as an error.
func constEval(e verilog.Expr, env ConstEnv, widths func(string) (int, bool), ctx int) (logic.Vector, bool) {
	want := selfWidth(e, env, widths)
	if ctx > want {
		want = ctx
	}
	switch x := e.(type) {
	case *verilog.Number:
		return x.Val.Resize(want), true

	case *verilog.Ident:
		if v, ok := env[x.Name]; ok {
			return v.Resize(want), true
		}
		return logic.Vector{}, false

	case *verilog.Unary:
		fn, sz, ok := logic.UnaryOp(x.Op)
		if !ok {
			return logic.Vector{}, false
		}
		operand, _ := sz.Operands(want)
		v, ok := constEval(x.X, env, widths, operand)
		if !ok {
			return logic.Vector{}, false
		}
		return fn(v).Resize(want), true

	case *verilog.Binary:
		fn, sz, ok := logic.BinaryOp(x.Op)
		if !ok {
			return logic.Vector{}, false
		}
		lctx, rctx := sz.Operands(want)
		l, ok1 := constEval(x.X, env, widths, lctx)
		r, ok2 := constEval(x.Y, env, widths, rctx)
		if !ok1 || !ok2 {
			return logic.Vector{}, false
		}
		return fn(l, r).Resize(want), true

	case *verilog.Concat:
		parts := make([]logic.Vector, len(x.Parts))
		for i, p := range x.Parts {
			v, ok := constEval(p, env, widths, 0)
			if !ok {
				return logic.Vector{}, false
			}
			parts[i] = v
		}
		return logic.Concat(parts...).Resize(want), true

	case *verilog.Repl:
		n, ok := constEval(x.Count, env, widths, 0)
		if !ok {
			return logic.Vector{}, false
		}
		c, defined := n.Uint64()
		if !defined || c == 0 || c > 4096 {
			return logic.Vector{}, false
		}
		v, ok := constEval(x.Value, env, widths, 0)
		if !ok {
			return logic.Vector{}, false
		}
		return logic.Replicate(int(c), v).Resize(want), true
	}
	return logic.Vector{}, false
}

// constIndex evaluates an index or bound expression to a small
// non-negative integer; false when non-constant or not fully defined.
func constIndex(e verilog.Expr, env ConstEnv, widths func(string) (int, bool)) (int, bool) {
	v, ok := constEval(e, env, widths, 0)
	if !ok {
		return 0, false
	}
	u, defined := v.Uint64()
	if !defined || u > 1<<20 {
		return 0, false
	}
	return int(u), true
}

// selfWidth computes the self-determined width of an expression per
// IEEE 1364 table 5-22, taking operator classes from the operator
// table. It is not the simulator's selfWidth: it resolves parameters
// from env, and it does not cap replication or part-select widths at
// the simulator's 4,096 bits. Unknown identifiers report width 1 (a
// separate pass flags them).
func selfWidth(e verilog.Expr, env ConstEnv, widths func(string) (int, bool)) int {
	switch x := e.(type) {
	case *verilog.Number:
		if x.Width == 0 {
			return 32
		}
		return x.Width
	case *verilog.StringLit:
		return 8 * len(x.Value)
	case *verilog.Ident:
		if v, ok := env[x.Name]; ok {
			return v.Width()
		}
		if w, ok := widths(x.Name); ok {
			return w
		}
		return 1
	case *verilog.Unary:
		if _, sz, _ := logic.UnaryOp(x.Op); sz == logic.SizeContext {
			return selfWidth(x.X, env, widths)
		}
		return 1
	case *verilog.Binary:
		switch _, sz, _ := logic.BinaryOp(x.Op); sz {
		case logic.SizeContext:
			return max(selfWidth(x.X, env, widths), selfWidth(x.Y, env, widths))
		case logic.SizeLeftContext:
			return selfWidth(x.X, env, widths)
		}
		return 1
	case *verilog.Ternary:
		l, r := selfWidth(x.Then, env, widths), selfWidth(x.Else, env, widths)
		if r > l {
			return r
		}
		return l
	case *verilog.Concat:
		total := 0
		for _, p := range x.Parts {
			total += selfWidth(p, env, widths)
		}
		if total == 0 {
			return 1
		}
		return total
	case *verilog.Repl:
		n, ok := constIndex(x.Count, env, widths)
		if !ok || n < 1 {
			n = 1
		}
		return n * selfWidth(x.Value, env, widths)
	case *verilog.Index:
		return 1
	case *verilog.PartSelect:
		hi, ok1 := constIndex(x.MSB, env, widths)
		lo, ok2 := constIndex(x.LSB, env, widths)
		if !ok1 || !ok2 {
			return 1
		}
		if hi < lo {
			hi, lo = lo, hi
		}
		return hi - lo + 1
	default:
		return 1
	}
}
