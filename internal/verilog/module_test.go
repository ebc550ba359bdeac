package verilog

import (
	"slices"
	"testing"

	"correctbench/internal/logic"
)

// TestAutoSens pins the sensitivity rule of processes without an
// explicit list: what counts as a read, what an always @* drops, and
// the sorted order elaboration builds Process.Sens in.
func TestAutoSens(t *testing.T) {
	for _, tc := range []struct {
		name, item string
		want       []string
	}{
		{"an LHS index and part-select bounds are reads", "always @* begin y[i] = a; z[j+1:j] = b; end", []string{"a", "b", "i", "j"}},
		{"@* drops the body's own targets", "always @* begin t = a; y = t & b; end", []string{"a", "b"}},
		{"a continuous assign keeps its own target", "assign y = y ^ a;", []string{"a", "y"}},
		{"task arguments are reads", `always @* begin y = a; $display("%d", b); end`, []string{"a", "b"}},
		{"a delay amount is not a read", "always @* #d y = a;", []string{"a"}},
		{"conditions, selectors and labels are reads", "always @* if (c) case (s) k: y = a; default: y = b; endcase else y = 1'b0;", []string{"a", "b", "c", "k", "s"}},
		{"loop conditions and repeat counts are reads", "always @* begin for (i = 0; i < n; i = i + 1) y = a; repeat (r) z = b; end", []string{"a", "b", "n", "r"}},
		{"the output is sorted", "assign y = z | c | a;", []string{"a", "c", "z"}},
	} {
		f, err := Parse("module m;\n" + tc.item + "\nendmodule\n")
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var got []string
		switch x := f.Modules[0].Items[0].(type) {
		case *ContAssign:
			got = AutoSens(&Assign{LHS: x.LHS, RHS: x.RHS, Pos: x.Pos}, false)
		case *Always:
			got = AutoSens(x.Body, x.Star)
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("%s: AutoSens = %q, want %q", tc.name, got, tc.want)
		}
	}
}

// TestDeclWidth pins the declaration width rule and its error texts,
// which are the elaborator's and the lint's alike.
func TestDeclWidth(t *testing.T) {
	env := &ConstEnv{Params: map[string]logic.Vector{"W": logic.FromUint64(32, 8)}}
	for _, tc := range []struct {
		decl string
		want int
		err  string
	}{
		{"wire x;", 1, ""},
		{"integer x;", 32, ""},
		{"reg [W-1:0] x;", 8, ""},
		{"wire [7:1] x;", 0, "only [msb:0] ranges are supported (got lsb=1)"},
		{"wire [4096:0] x;", 0, "vector too wide (4097 bits)"},
		{"wire [W+a:0] x;", 0, `constant expression: "a" is not a constant`},
		{"wire [1'bx:0] x;", 0, "range bounds must be fully defined"},
	} {
		f, err := Parse("module m;\n" + tc.decl + "\nendmodule\n")
		if err != nil {
			t.Fatalf("%s: %v", tc.decl, err)
		}
		got, err := DeclWidth(f.Modules[0].Items[0].(*Decl), env)
		gotErr := ""
		if err != nil {
			gotErr = err.Error()
		}
		if got != tc.want || gotErr != tc.err {
			t.Errorf("%s: DeclWidth = %d, %q; want %d, %q", tc.decl, got, gotErr, tc.want, tc.err)
		}
	}
}
