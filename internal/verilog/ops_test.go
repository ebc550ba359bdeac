package verilog

import (
	"testing"

	"correctbench/internal/logic"
)

// TestParsedOperatorsResolve pins the parser's operator set to the
// evaluators' operator table: an operator the parser accepts but the
// table lacks would pass the syntax check and then fail every
// simulation.
func TestParsedOperatorsResolve(t *testing.T) {
	for _, level := range binaryLevels {
		for _, op := range level {
			if _, _, _, ok := logic.BinaryOp(op); !ok {
				t.Errorf("binary operator %q parses but is not in the operator table", op)
			}
		}
	}
	for op := range unaryOps {
		if op == "+" {
			continue // parseUnary drops unary +
		}
		if _, _, _, ok := logic.UnaryOp(op); !ok {
			t.Errorf("unary operator %q parses but is not in the operator table", op)
		}
	}
}

// TestNoBinaryReductionOperators: IEEE 1364 has ~& and ~| only as
// unary reductions, so a binary use is a syntax error.
func TestNoBinaryReductionOperators(t *testing.T) {
	for _, op := range []string{"~&", "~|"} {
		src := "module m(input a, input b, output y);\n  assign y = a " + op + " b;\nendmodule\n"
		if _, err := Parse(src); err == nil {
			t.Errorf("binary %q parsed", op)
		}
		unary := "module m(input [1:0] a, output y);\n  assign y = " + op + "a;\nendmodule\n"
		if _, err := Parse(unary); err != nil {
			t.Errorf("unary %q: %v", op, err)
		}
	}
}
