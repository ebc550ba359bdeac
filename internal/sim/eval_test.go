package sim

import (
	"context"
	"testing"

	"correctbench/internal/logic"
)

// evalIn builds a tiny design to evaluate an expression with known
// input values and width, returning the result signal.
func evalIn(t *testing.T, decl, expr string, width int, inputs map[string]uint64) logic.Vector {
	t.Helper()
	src := "module m(" + decl + ", output [" + itoa(width-1) + ":0] y);\n    assign y = " + expr + ";\nendmodule"
	d, err := ElaborateSourceContext(context.Background(), src, "m")
	if err != nil {
		t.Fatalf("elaborate %q: %v", expr, err)
	}
	in := NewInstance(d)
	if err := in.ZeroInputs(); err != nil {
		t.Fatal(err)
	}
	for k, v := range inputs {
		if err := in.SetInputUint(k, v); err != nil {
			t.Fatal(err)
		}
	}
	return in.MustGet("y")
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

func TestContextWidening(t *testing.T) {
	// 4-bit operands added in a 5-bit context keep their carry.
	v := evalIn(t, "input [3:0] a, input [3:0] b", "a + b", 5,
		map[string]uint64{"a": 15, "b": 15})
	if got, _ := v.Uint64(); got != 30 {
		t.Errorf("context widening lost carry: %d", got)
	}
}

func TestSelfDeterminedComparison(t *testing.T) {
	// Comparison operands are self-determined: a+b wraps at 4 bits
	// inside the comparison? No — arithmetic inside a comparison still
	// widens to the operands' max width only. 15+1 wraps to 0 at 4
	// bits, so a + b < a holds.
	v := evalIn(t, "input [3:0] a, input [3:0] b", "(a + b) < a", 1,
		map[string]uint64{"a": 15, "b": 1})
	if got, _ := v.Uint64(); got != 1 {
		t.Errorf("4-bit wrap inside comparison: got %d, want 1", got)
	}
}

func TestConcatIsSelfDetermined(t *testing.T) {
	// Inside a concat, arithmetic stays at operand width.
	v := evalIn(t, "input [3:0] a, input [3:0] b", "{a + b, 4'd1}", 8,
		map[string]uint64{"a": 9, "b": 8})
	if got, _ := v.Uint64(); got != ((9+8)&15)<<4|1 {
		t.Errorf("concat part width wrong: %#x", got)
	}
}

func TestShiftAmountSelfDetermined(t *testing.T) {
	v := evalIn(t, "input [7:0] a, input [2:0] sh", "a << sh", 8,
		map[string]uint64{"a": 1, "sh": 7})
	if got, _ := v.Uint64(); got != 128 {
		t.Errorf("shift: %d", got)
	}
}

func TestReplicationWidth(t *testing.T) {
	v := evalIn(t, "input a", "{4{a}}", 4, map[string]uint64{"a": 1})
	if got, _ := v.Uint64(); got != 15 {
		t.Errorf("replication: %d", got)
	}
}

func TestTernaryContextWidth(t *testing.T) {
	// Both ternary branches adopt the assignment context.
	v := evalIn(t, "input sel, input [3:0] a", "sel ? (a + 4'd15) : 5'd0", 5,
		map[string]uint64{"sel": 1, "a": 15})
	if got, _ := v.Uint64(); got != 30 {
		t.Errorf("ternary context: %d", got)
	}
}

func TestUnsizedLiteralIs32Bit(t *testing.T) {
	// An unsized literal brings 32-bit context into the addition.
	v := evalIn(t, "input [3:0] a", "a + 16", 8, map[string]uint64{"a": 15})
	if got, _ := v.Uint64(); got != 31 {
		t.Errorf("unsized literal context: %d", got)
	}
}

func TestReductionOfExpression(t *testing.T) {
	v := evalIn(t, "input [7:0] a", "^(a & 8'hf0)", 1, map[string]uint64{"a": 0x30})
	if got, _ := v.Uint64(); got != 0 {
		t.Errorf("reduction: %d", got)
	}
	v = evalIn(t, "input [7:0] a", "&a[3:0]", 1, map[string]uint64{"a": 0x0f})
	if got, _ := v.Uint64(); got != 1 {
		t.Errorf("reduction of part select: %d", got)
	}
}

func TestIndexOutOfRangeIsX(t *testing.T) {
	v := evalIn(t, "input [3:0] a, input [3:0] idx", "a[idx]", 1,
		map[string]uint64{"a": 15, "idx": 9})
	if !v.HasUnknown() {
		t.Errorf("out-of-range select = %s, want x", v)
	}
}

func TestPartSelectValue(t *testing.T) {
	v := evalIn(t, "input [7:0] a", "a[6:3]", 4, map[string]uint64{"a": 0b01011000})
	if got, _ := v.Uint64(); got != 0b1011 {
		t.Errorf("part select: %04b", got)
	}
}

func TestCaseEqualityOnX(t *testing.T) {
	// 1'bx === 1'bx is true (case equality matches X exactly).
	v := evalIn(t, "input a", "1'bx === 1'bx", 1, map[string]uint64{"a": 0})
	if got, _ := v.Uint64(); got != 1 {
		t.Errorf("x === x = %d, want 1", got)
	}
	v = evalIn(t, "input a", "1'bx == 1'bx", 1, map[string]uint64{"a": 0})
	if !v.HasUnknown() {
		t.Errorf("x == x should be x, got %s", v)
	}
}

func TestPowerOperator(t *testing.T) {
	v := evalIn(t, "input [3:0] a", "a ** 2", 8, map[string]uint64{"a": 9})
	if got, _ := v.Uint64(); got != 81 {
		t.Errorf("9**2 = %d", got)
	}
}

func TestModAndDivByZeroAreX(t *testing.T) {
	v := evalIn(t, "input [3:0] a, input [3:0] b", "a % b", 4,
		map[string]uint64{"a": 9, "b": 0})
	if !v.HasUnknown() {
		t.Errorf("mod by zero = %s", v)
	}
}
