package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// lintSource lints src as the one file of a package and returns its
// findings.
func lintSource(t *testing.T, src string) []finding {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "x.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	findings, _, err := lint([]string{dir})
	if err != nil {
		t.Fatal(err)
	}
	return findings
}

// wantLines checks that the findings fall on exactly the given lines,
// each with a message containing about.
func wantLines(t *testing.T, got []finding, about string, want ...int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d findings %v, want lines %v", len(got), got, want)
	}
	for i, f := range got {
		if f.pos.Line != want[i] || !strings.Contains(f.msg, about) {
			t.Errorf("finding %d: line %d %q, want line %d about %q", i, f.pos.Line, f.msg, want[i], about)
		}
	}
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

type W interface{ Write([]byte) (int, error) }
type E interface{ Encode(any) error }
type S interface{ Close() error }
`
	wantLines(t, lintSource(t, src), "the error", 4, 5, 6, 7, 8, 9)
}

// TestHandledErrorNotFlagged: checked errors, a plain Close statement
// (an error path or a read), other methods, an allowed discard and a
// Write or Close without an error result are not findings.
func TestHandledErrorNotFlagged(t *testing.T) {
	src := `package x

func f(w W, enc E, srv S, c counter) error {
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
	c.Write(nil)
	_ = c.Write(nil)
	defer c.Close()
	return srv.Close()
}

type W interface {
	Write([]byte) (int, error)
	Flush() error
}
type E interface{ Encode(any) error }
type S interface {
	Close() error
	Shutdown() error
}

type counter struct{}

func (counter) Write(p []byte) int { return len(p) }
func (counter) Close()             {}
`
	if got := lintSource(t, src); len(got) != 0 {
		t.Errorf("findings %v, want none", got)
	}
}

// TestSliceNamedLikeMapNotFlagged: a range over a slice is not a
// finding, even when a map elsewhere in the package has its name.
func TestSliceNamedLikeMapNotFlagged(t *testing.T) {
	src := `package x

type set struct{ at []int }

func build() map[string]int {
	at := map[string]int{}
	return at
}

func (s *set) sum() (n int) {
	for _, v := range s.at {
		n += v
	}
	return n
}
`
	if got := lintSource(t, src); len(got) != 0 {
		t.Errorf("findings %v, want none", got)
	}
}

// TestMapRangeFlagged: a range over a map is a finding however the map
// is reached — a call, a method result, a named map type — unless it
// only collects the keys or a directive allows it.
func TestMapRangeFlagged(t *testing.T) {
	src := `package x

type M map[string]int

type T struct{}

func (T) m() map[int]bool { return nil }

func get() map[string]int { return nil }

func f(t T, named M) (n int) {
	for k := range get() {
		n += len(k)
	}
	for k := range t.m() {
		n += k
	}
	for _, v := range named {
		n += v
	}
	var keys []string
	for k := range named {
		keys = append(keys, k)
	}
	for k := range named { //detlint:allow a sum; the order reaches nothing
		n += len(k)
	}
	//detlint:allow a sum; the order reaches nothing
	for _, v := range get() {
		n += v
	}
	return n + len(keys)
}
`
	wantLines(t, lintSource(t, src), "range over map", 12, 15, 18)
}

// TestMapIteratorRangeFlagged: a range over maps.Keys, maps.Values or
// maps.All is a finding under any import name, also when instantiated
// explicitly; a range over the sorted keys, or a slice iterator, is
// not.
func TestMapIteratorRangeFlagged(t *testing.T) {
	src := `package x

import (
	"maps"
	m2 "maps"
	"slices"
)

func f(m map[string]int) (n int) {
	for k := range maps.Keys(m) {
		n += len(k)
	}
	for v := range maps.Values(m) {
		n += v
	}
	for k, v := range maps.All(m) {
		n += len(k) + v
	}
	for k := range m2.Keys(m) {
		n += len(k)
	}
	for k := range maps.Keys[map[string]int](m) {
		n += len(k)
	}
	for _, k := range slices.Sorted(maps.Keys(m)) {
		n += len(k)
	}
	for _, v := range slices.All([]int{1, 2}) {
		n += v
	}
	return n
}
`
	wantLines(t, lintSource(t, src), "yields map order", 10, 13, 16, 19, 22)
}

// TestGlobalSourcesFlagged: time.Now and math/rand's global-source
// functions are findings under any import name; seeded generators,
// their methods, the rand.Rand type and locals named time or rand are
// not.
func TestGlobalSourcesFlagged(t *testing.T) {
	src := `package x

import (
	"math/rand"
	mrand "math/rand"
	"time"
)

func f() int {
	_ = time.Now()
	n := rand.Intn(3)
	n += mrand.Intn(3)
	rand.Seed(1)
	r := rand.New(rand.NewSource(1))
	n += r.Intn(3)
	n += rand.New(rand.NewSource(1)).Intn(3)
	var _ *rand.Rand
	now := time.Now //detlint:allow a wall-clock metric
	_ = now
	return n
}

func g() int {
	time := clock{}
	rand := struct{ Intn func(int) int }{func(n int) int { return n }}
	return time.Now() + rand.Intn(2)
}

type clock struct{}

func (clock) Now() int { return 0 }
`
	got := lintSource(t, src)
	if len(got) != 4 {
		t.Fatalf("%d findings %v, want 4", len(got), got)
	}
	wantLines(t, got[:1], "time.Now", 10)
	wantLines(t, got[1:], "math/rand global source", 11, 12, 13)
}

// TestDefaultScopeClean lints the default scope from the repo root, as
// CI's determinism lint step does, and requires no findings.
func TestDefaultScopeClean(t *testing.T) {
	var scope []string
	for _, path := range defaultScope {
		scope = append(scope, filepath.Join("..", "..", path))
	}
	findings, _, err := lint(scope)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("%s:%d: %s", f.pos.Filename, f.pos.Line, f.msg)
	}
}
