package verilog

// The module rules every consumer of a module shares: internal/sim's
// elaborator builds its flat design by them, and internal/vstatic's
// module view reads the same ones, so the lint cannot pass a module the
// elaborator rejects or give a process a sensitivity the simulator does
// not. Each rule has one definition here: a constant expression's value
// (ConstValue), a declaration's width (DeclWidth), which always blocks
// are combinational ((*Always).Level) and the sensitivity of a process
// without an explicit list (AutoSens).

import (
	"errors"
	"fmt"
	"maps"
	"slices"

	"correctbench/internal/logic"
)

// ConstValue evaluates a constant expression under env. A read that is
// not a constant fails naming the first identifier, in evaluation
// order, that env does not hold as a parameter.
func ConstValue(e Expr, env Env) (logic.Vector, error) {
	if e == nil {
		return logic.Vector{}, errors.New("missing constant expression")
	}
	v, err := Eval(e, env, 0)
	if errors.Is(err, ErrNotConstant) {
		WalkExprs(e, func(x Expr) {
			if id, ok := x.(*Ident); ok && err == ErrNotConstant {
				if _, perr := env.Get(id.Name); perr != nil {
					err = fmt.Errorf("%q is not a constant", id.Name)
				}
			}
		})
	}
	if err != nil {
		return logic.Vector{}, fmt.Errorf("constant expression: %v", err)
	}
	return v, nil
}

// DeclWidth is the width of the signals d declares, its range's bounds
// folded under env. Without a range a signal is 1 bit and an integer
// 32. A range's bounds must be constants with every bit defined, the
// range must be [msb:0], and msb must be below MaxVectorWidth.
func DeclWidth(d *Decl, env Env) (int, error) {
	if d.Range == nil {
		if d.Kind == DeclInteger {
			return 32, nil
		}
		return 1, nil
	}
	msbV, err := ConstValue(d.Range.MSB, env)
	if err != nil {
		return 0, err
	}
	lsbV, err := ConstValue(d.Range.LSB, env)
	if err != nil {
		return 0, err
	}
	msb, ok1 := msbV.Uint64()
	lsb, ok2 := lsbV.Uint64()
	if !ok1 || !ok2 {
		return 0, errors.New("range bounds must be fully defined")
	}
	if lsb != 0 {
		return 0, fmt.Errorf("only [msb:0] ranges are supported (got lsb=%d)", lsb)
	}
	if msb >= MaxVectorWidth {
		return 0, fmt.Errorf("vector too wide (%d bits)", msb+1)
	}
	return int(msb) + 1, nil
}

// Level reports whether a is a combinational process: always @* or a
// sensitivity list of level items only.
func (a *Always) Level() bool {
	if a.Star {
		return true
	}
	for _, s := range a.Sens {
		if s.Edge != EdgeNone {
			return false
		}
	}
	return len(a.Sens) > 0
}

// AutoSens is the level sensitivity of a process without an explicit
// list (IEEE 1364-2005 §9.7.5): the sorted names its body reads in
// right-hand sides, in the index and bound expressions of its targets,
// in conditions, case selectors and labels, loop conditions, repeat
// counts and task arguments. A delay amount is not a read. With star,
// for an always @*, the names the body itself assigns are dropped: a
// process that reads what it writes (loop counters, read-modify-write
// outputs, latch holds) must not wake on its own writes, or settling
// would never reach a fixpoint. A continuous assign keeps them.
func AutoSens(body Stmt, star bool) []string {
	seen := map[string]bool{}
	addExpr := func(e Expr) {
		WalkExprs(e, func(x Expr) {
			if id, ok := x.(*Ident); ok {
				seen[id.Name] = true
			}
		})
	}
	var addLHSIndexes func(e Expr)
	addLHSIndexes = func(e Expr) {
		switch x := e.(type) {
		case *Index:
			addLHSIndexes(x.X)
			addExpr(x.Index)
		case *PartSelect:
			addLHSIndexes(x.X)
			addExpr(x.MSB)
			addExpr(x.LSB)
		case *Concat:
			for _, p := range x.Parts {
				addLHSIndexes(p)
			}
		}
	}
	var targets []string
	WalkStmts(body, func(s Stmt) {
		switch x := s.(type) {
		case *Assign:
			addExpr(x.RHS)
			addLHSIndexes(x.LHS)
			if star {
				targets = append(targets, LHSTargets(x.LHS)...)
			}
		case *If:
			addExpr(x.Cond)
		case *Case:
			addExpr(x.Expr)
			for _, item := range x.Items {
				for _, e := range item.Exprs {
					addExpr(e)
				}
			}
		case *For:
			addExpr(x.Cond)
		case *Repeat:
			addExpr(x.Count)
		case *SysCall:
			for _, a := range x.Args {
				addExpr(a)
			}
		}
	})
	for _, n := range targets {
		delete(seen, n)
	}
	return slices.Sorted(maps.Keys(seen))
}
