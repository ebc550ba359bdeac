package vstatic

// The fold rule: which process bodies internal/sim's batch compiler
// folds into word closures. Folds is its one definition. The compiler
// asks it before compiling a body and compiles the interpreted closure
// when it says no; AnalyzeModule asks it of every comb and sequential
// body, since the engine runs an unfolded body event-driven.

import (
	"correctbench/internal/logic"
	"correctbench/internal/verilog"
)

// Folds reports whether the batch compiler folds body into word
// closures under env: every statement is one the compiler mirrors,
// every value and target is at most logic.WordBits wide with a width
// that does not depend on a signal value, and every replication count
// and part-select bound folds to a constant. An identifier must be
// known to env as a parameter or a signal: the lint reads parameters
// by name, and the elaborator has substituted them before the compiler
// sees a body.
func Folds(body verilog.Stmt, env verilog.ConstEnv) bool {
	return foldsStmt(body, &env)
}

// foldsStmt is Folds over a pointer to env, which verilog's rules take
// as their Env without allocating.
func foldsStmt(body verilog.Stmt, env *verilog.ConstEnv) bool {
	switch x := body.(type) {
	case nil, *verilog.Null:
		return true
	case *verilog.Block:
		for _, s := range x.Stmts {
			if !foldsStmt(s, env) {
				return false
			}
		}
		return true
	case *verilog.Assign:
		ctx, static := verilog.LHSWidth(x.LHS, env)
		return static && foldsExpr(x.RHS, ctx, env) && foldsTarget(x.LHS, env)
	case *verilog.If:
		return foldsExpr(x.Cond, 0, env) && foldsStmt(x.Then, env) && foldsStmt(x.Else, env)
	case *verilog.Case:
		if !foldsExpr(x.Expr, 0, env) {
			return false
		}
		for _, it := range x.Items {
			for _, e := range it.Exprs {
				if !foldsExpr(e, 0, env) {
					return false
				}
			}
			if !foldsStmt(it.Body, env) {
				return false
			}
		}
		return true
	case *verilog.For:
		return foldsStmt(x.Init, env) && foldsExpr(x.Cond, 0, env) && foldsStmt(x.Step, env) && foldsStmt(x.Body, env)
	case *verilog.Repeat:
		return foldsExpr(x.Count, 0, env) && foldsStmt(x.Body, env)
	case *verilog.SysCall:
		// Display tasks and $finish/$stop act on the lane's system state.
		return verilog.NoOpTask(x.Name)
	default:
		// A delay control errors under the cycle API, and exec reports it.
		return false
	}
}

// foldsExpr reports whether e, under context width ctx, compiles to a
// word closure: its width max(ctx, verilog.SelfWidth(e)) is static and
// at most logic.WordBits, and so is every operand's under the context
// the operator gives it. Replication counts and part-select bounds are
// folded, not compiled, so their widths do not count.
func foldsExpr(e verilog.Expr, ctx int, env *verilog.ConstEnv) bool {
	self, static := verilog.SelfWidth(e, env)
	want := max(self, ctx)
	if !static || want > logic.WordBits {
		return false
	}
	switch x := e.(type) {
	case *verilog.Number:
		return true
	case *verilog.Ident:
		_, known := env.SignalWidth(x.Name)
		return known
	case *verilog.Unary:
		_, _, sz, ok := logic.UnaryOp(x.Op)
		operand, _ := sz.Operands(want)
		return ok && foldsExpr(x.X, operand, env)
	case *verilog.Binary:
		_, _, sz, ok := logic.BinaryOp(x.Op)
		l, r := sz.Operands(want)
		return ok && foldsExpr(x.X, l, env) && foldsExpr(x.Y, r, env)
	case *verilog.Ternary:
		return foldsExpr(x.Cond, 0, env) && foldsExpr(x.Then, want, env) && foldsExpr(x.Else, want, env)
	case *verilog.Concat:
		for _, p := range x.Parts {
			if !foldsExpr(p, 0, env) {
				return false
			}
		}
		return true
	case *verilog.Repl:
		n, err := verilog.Eval(x.Count, env, 0)
		if err != nil || !foldsExpr(x.Value, 0, env) {
			return false
		}
		w, _ := verilog.SelfWidth(x.Value, env)
		_, err = verilog.ReplCount(n, w)
		return err == nil
	case *verilog.Index:
		return foldsExpr(x.X, 0, env) && foldsExpr(x.Index, 0, env)
	case *verilog.PartSelect:
		// Its bounds fold: a part-select's width is static only when
		// both evaluate and span at most verilog.MaxVectorWidth bits.
		return foldsExpr(x.X, 0, env)
	default:
		return false // string literals and unknown nodes
	}
}

// foldsTarget reports whether an assignment target compiles to a word
// target. Its verilog.LHSWidth, the context of the right-hand side, is
// static and at most logic.WordBits, so a part-select's bounds fold and
// a concatenation is narrow; what is left is that every slot it writes
// through an identifier is a known signal at most logic.WordBits wide,
// and that a bit-select's index is a word expression.
func foldsTarget(lhs verilog.Expr, env *verilog.ConstEnv) bool {
	switch x := lhs.(type) {
	case *verilog.Ident:
		w, known := env.SignalWidth(x.Name)
		return known && w <= logic.WordBits
	case *verilog.Index:
		_, id := x.X.(*verilog.Ident)
		return id && foldsTarget(x.X, env) && foldsExpr(x.Index, 0, env)
	case *verilog.PartSelect:
		_, id := x.X.(*verilog.Ident)
		return id && foldsTarget(x.X, env)
	case *verilog.Concat:
		for _, p := range x.Parts {
			if !foldsTarget(p, env) {
				return false
			}
		}
		return true
	}
	return false
}
