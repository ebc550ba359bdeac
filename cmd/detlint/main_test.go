package main

import (
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// lintSource lints one file's source and returns its findings' lines.
func lintSource(t *testing.T, src string) []finding {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "x.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	return lintFile(fset, f, collectMapNames(nil))
}

// TestDiscardedErrorFlagged: a Write, Encode or Close whose error is
// assigned to _, deferred, or — for Write and Encode — made as a
// statement is a finding, one per line.
func TestDiscardedErrorFlagged(t *testing.T) {
	src := `package x

func f(w W, enc E, srv S) {
	_, _ = w.Write(nil)
	_ = enc.Encode(1)
	defer srv.Close()
	w.Write(nil)
	enc.Encode(2)
	_ = srv.Close()
}
`
	got := lintSource(t, src)
	want := []int{4, 5, 6, 7, 8, 9}
	if len(got) != len(want) {
		t.Fatalf("%d findings %v, want lines %v", len(got), got, want)
	}
	for i, f := range got {
		if f.pos.Line != want[i] || !strings.Contains(f.msg, "discarded") && !strings.Contains(f.msg, "assigned to _") {
			t.Errorf("finding %d: line %d %q, want line %d about a discarded error", i, f.pos.Line, f.msg, want[i])
		}
	}
}

// TestHandledErrorNotFlagged: checked errors, a plain Close statement
// (an error path or a read), other methods and an allowed discard are
// not findings.
func TestHandledErrorNotFlagged(t *testing.T) {
	src := `package x

func f(w W, enc E, srv S) error {
	if _, err := w.Write(nil); err != nil {
		return err
	}
	if err := enc.Encode(1); err != nil {
		srv.Close()
		return err
	}
	_ = w.Flush()
	defer srv.Shutdown()
	defer srv.Close() //detlint:allow closing a read-only handle
	return srv.Close()
}
`
	if got := lintSource(t, src); len(got) != 0 {
		t.Errorf("findings %v, want none", got)
	}
}
