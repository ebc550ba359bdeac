package sim

import (
	"fmt"
	"testing"

	"correctbench/internal/logic"
)

// TestOperatorKnownAnswers pins every operator of the operator table to
// fixed answers on both engines. Differentials compare the engines with
// each other, so an entry both share could be wrong and still pass
// them; these answers are fixed. Each binary operator runs on a 4-bit a
// and a 3-bit b into a 6-bit y (mixed widths: context operators widen,
// self-determined ones zero-extend their 1-bit result), with known
// operands and with an x bit in a; each unary one on a alone. A third
// answer puts a sum on each operand, (a + 4'd7) and (b + 3'd6), which
// wraps only when that operand is evaluated self-determined, so it
// pins the sizing of each operand too.
func TestOperatorKnownAnswers(t *testing.T) {
	known := [2]string{"1011", "011"}
	withX := [2]string{"10x1", "010"}
	cases := []struct {
		op                 string
		unary              bool
		known, oneX, sized string // y for a OP b: known, with an x bit in a; and for the sums
	}{
		{"+", false, "001110", "xxxxxx", "011011"},
		{"-", false, "001000", "xxxxxx", "001001"},
		{"*", false, "100001", "xxxxxx", "100010"},
		{"/", false, "000011", "xxxxxx", "000010"},
		{"%", false, "000010", "xxxxxx", "000000"},
		{"&", false, "000011", "0000x0", "000000"},
		{"|", false, "001011", "001011", "011011"},
		{"^", false, "001000", "0010x1", "011011"},
		{"~^", false, "110111", "1101x0", "100100"},
		{"^~", false, "110111", "1101x0", "100100"},
		{"<<", false, "011000", "10x100", "100100"},
		{"<<<", false, "011000", "10x100", "100100"},
		{">>", false, "000001", "000010", "001001"},
		{">>>", false, "000001", "000010", "001001"},
		{"**", false, "110011", "xxxxxx", "010010"},
		{"==", false, "000000", "00000x", "000000"},
		{"!=", false, "000001", "00000x", "000001"},
		{"===", false, "000000", "000000", "000000"},
		{"!==", false, "000001", "000001", "000001"},
		{"<", false, "000000", "00000x", "000000"},
		{"<=", false, "000000", "00000x", "000000"},
		{">", false, "000001", "00000x", "000001"},
		{">=", false, "000001", "00000x", "000001"},
		{"&&", false, "000001", "000001", "000001"},
		{"||", false, "000001", "000001", "000001"},
		{"~", true, "110100", "1101x0", "101101"},
		{"-", true, "110101", "xxxxxx", "101110"},
		{"!", true, "000000", "000000", "000000"},
		{"&", true, "000000", "000000", "000000"},
		{"|", true, "000001", "000001", "000001"},
		{"^", true, "000001", "00000x", "000001"},
		{"~&", true, "000001", "000001", "000001"},
		{"~|", true, "000000", "000000", "000000"},
		{"~^", true, "000000", "00000x", "000000"},
		{"^~", true, "000000", "00000x", "000000"},
	}
	for _, tc := range cases {
		name, body := "binary "+tc.op, "assign y = a "+tc.op+" b;\n    assign z = (a + 4'd7) "+tc.op+" (b + 3'd6);"
		if tc.unary {
			name, body = "unary "+tc.op, "assign y = "+tc.op+"a;\n    assign z = "+tc.op+"(a + 4'd7);"
		}
		t.Run(name, func(t *testing.T) {
			d := mustElab(t, fmt.Sprintf("module m(input [3:0] a, input [2:0] b, output [5:0] y, output [5:0] z);\n    %s\nendmodule", body), "m")
			progs := CompileBatch(d, []*Design{d})
			if len(progs) != 1 || progs[0].Interpreted() {
				t.Fatal("the design does not compile to one folded program")
			}
			in, b := NewInstance(d), NewBatchInstance(progs[0])
			for _, st := range []struct {
				ops  [2]string
				want map[string]string
			}{
				{known, map[string]string{"y": tc.known, "z": tc.sized}},
				{withX, map[string]string{"y": tc.oneX}},
			} {
				for j, port := range []string{"a", "b"} {
					v := logic.MustParse(st.ops[j])
					if err := in.SetInput(port, v); err != nil {
						t.Fatal(err)
					}
					if err := b.SetInput(port, v); err != nil {
						t.Fatal(err)
					}
				}
				for _, out := range []string{"y", "z"} {
					want, ok := st.want[out]
					if !ok {
						continue
					}
					if got := in.MustGet(out).String(); got != want {
						t.Errorf("a=%s b=%s: Instance %s = %s, want %s", st.ops[0], st.ops[1], out, got, want)
					}
					got, err := b.Get(out, 0)
					if err == nil {
						err = b.LaneErr(0)
					}
					if err != nil {
						t.Fatal(err)
					}
					if got.String() != want {
						t.Errorf("a=%s b=%s: batch lane %s = %s, want %s", st.ops[0], st.ops[1], out, got, want)
					}
				}
			}
		})
	}
}
