package vstatic

// Constant folding. The lint and the purity analysis fold constants
// with the engine's own rules (verilog.Eval, verilog.SelfWidth,
// verilog.LHSWidth and verilog.CaseMatch) over one verilog.ConstEnv
// per module: its parameters and its declared widths. A read of
// anything else fails with verilog.ErrNotConstant, so a failed fold
// allocates nothing. An expression that does not evaluate, or a width
// that is not static, is unknown, and no lint fires off it. Widths past
// verilog.MaxVectorWidth are not static either, so nothing is sized
// past the engine's cap.

import "correctbench/internal/verilog"

// constIndex evaluates an index or bound expression to a small
// non-negative integer (at most 2^20); false when it is not constant or
// not fully defined.
func constIndex(e verilog.Expr, env verilog.Env) (int, bool) {
	v, err := verilog.Eval(e, env, 0)
	if err != nil {
		return 0, false
	}
	u, defined := v.Uint64()
	if !defined || u > 1<<20 {
		return 0, false
	}
	return int(u), true
}
