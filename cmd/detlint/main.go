// Command detlint lints the repo's own determinism invariants. The
// harness promises byte-identical tables and event streams for a
// given seed, and the store promises byte-identical shards; the three
// classic ways Go code breaks such promises are wall-clock reads,
// the global math/rand source, and iteration over maps.
//
// detlint parses the determinism-critical scope with go/ast — no type
// checker, no external tooling — and flags the findings below. The
// default scope is the harness, tracing and store packages with
// events.go, and the Table I path: the validator, the testbench, the
// Algorithm-1 core, the corrector, AutoBench and AutoEval, whose
// text-keyed memos must never be ranged over to order work.
//
// The scope also takes in the daemon's serving code (service.go,
// metrics.go, cmd/correctbenchd), for the last check below.
//
// It flags:
//
//   - calls to time.Now
//   - uses of math/rand's global-source API (rand.Intn, rand.Seed,
//     ...; constructing seeded generators via rand.New/NewSource and
//     referring to the rand.Rand/Source types stay legal)
//   - range statements over expressions declared as maps anywhere in
//     the scanned scope (a heuristic: no type inference, so only
//     names whose declaration is visibly a map are matched)
//   - a discarded error from a method named Write, Encode or Close:
//     its result assigned to _, a deferred call, or — for Write and
//     Encode — a call made as a statement. A plain x.Close() statement
//     is left alone: the Go convention closes on error paths and after
//     reads that way. Without type inference any method of those names
//     counts.
//
// A finding is suppressed by a directive comment on the same line or
// the line above:
//
//	start := time.Now() //detlint:allow wall-clock metric, not in event payloads
//
// Usage:
//
//	detlint                      # lint the default scope
//	detlint ./internal/foo bar.go
//
// Exit status: 0 clean, 1 findings, 2 on parse/usage errors.
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

var defaultScope = []string{
	"internal/harness", "internal/obs", "internal/store", "events.go",
	"internal/validator", "internal/testbench", "internal/core",
	"internal/corrector", "internal/autobench", "internal/autoeval",
	"service.go", "metrics.go", "cmd/correctbenchd",
}

type finding struct {
	pos token.Position
	msg string
}

func main() {
	flag.Parse()
	scope := flag.Args()
	if len(scope) == 0 {
		scope = defaultScope
	}

	var files []string
	for _, path := range scope {
		info, err := os.Stat(path)
		if err != nil {
			fatal("%v", err)
		}
		if !info.IsDir() {
			files = append(files, path)
			continue
		}
		entries, err := os.ReadDir(path)
		if err != nil {
			fatal("%v", err)
		}
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			files = append(files, filepath.Join(path, name))
		}
	}
	sort.Strings(files)

	fset := token.NewFileSet()
	var parsed []*ast.File
	for _, path := range files {
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			fatal("%v", err)
		}
		parsed = append(parsed, f)
	}

	mapNames := collectMapNames(parsed)
	var findings []finding
	for _, f := range parsed {
		findings = append(findings, lintFile(fset, f, mapNames)...)
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i].pos, findings[j].pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Line < b.Line
	})
	for _, f := range findings {
		fmt.Printf("%s:%d: %s\n", f.pos.Filename, f.pos.Line, f.msg)
	}
	if len(findings) > 0 {
		fmt.Printf("detlint: %d finding(s) in %d file(s)\n", len(findings), len(files))
		os.Exit(1)
	}
}

func fatal(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "detlint: "+format+"\n", args...)
	os.Exit(2)
}

// collectMapNames indexes identifiers whose declaration is visibly a
// map across the scanned files: struct fields, var declarations with
// a map type, and assignments from make(map...) or map literals.
func collectMapNames(files []*ast.File) map[string]bool {
	names := map[string]bool{}
	record := func(idents []*ast.Ident, typ ast.Expr) {
		if _, ok := typ.(*ast.MapType); !ok {
			return
		}
		for _, id := range idents {
			names[id.Name] = true
		}
	}
	isMapExpr := func(e ast.Expr) bool {
		switch x := e.(type) {
		case *ast.CompositeLit:
			_, ok := x.Type.(*ast.MapType)
			return ok
		case *ast.CallExpr:
			if fn, ok := x.Fun.(*ast.Ident); ok && fn.Name == "make" && len(x.Args) > 0 {
				_, isMap := x.Args[0].(*ast.MapType)
				return isMap
			}
		}
		return false
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.Field:
				record(x.Names, x.Type)
			case *ast.ValueSpec:
				if x.Type != nil {
					record(x.Names, x.Type)
				}
				for i, v := range x.Values {
					if isMapExpr(v) && i < len(x.Names) {
						names[x.Names[i].Name] = true
					}
				}
			case *ast.AssignStmt:
				for i, rhs := range x.Rhs {
					if isMapExpr(rhs) && i < len(x.Lhs) {
						if id, ok := x.Lhs[i].(*ast.Ident); ok {
							names[id.Name] = true
						}
					}
				}
			}
			return true
		})
	}
	return names
}

// importAlias returns the name the file refers to importPath by, or
// "" if not imported.
func importAlias(f *ast.File, importPath string) string {
	for _, imp := range f.Imports {
		p, err := strconv.Unquote(imp.Path.Value)
		if err != nil || p != importPath {
			continue
		}
		if imp.Name != nil {
			return imp.Name.Name
		}
		return importPath[strings.LastIndex(importPath, "/")+1:]
	}
	return ""
}

// globalRandAllowed are math/rand selectors that do not touch the
// global source: constructors and type names.
var globalRandAllowed = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"Rand": true, "Source": true, "Source64": true, "Zipf": true,
}

func lintFile(fset *token.FileSet, f *ast.File, mapNames map[string]bool) []finding {
	timeAlias := importAlias(f, "time")
	randAlias := importAlias(f, "math/rand")
	allowed := allowedLines(fset, f)

	var out []finding
	flag := func(n ast.Node, format string, args ...interface{}) {
		pos := fset.Position(n.Pos())
		if allowed[pos.Line] {
			return
		}
		out = append(out, finding{pos: pos, msg: fmt.Sprintf(format, args...)})
	}

	ast.Inspect(f, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.SelectorExpr:
			pkg, ok := x.X.(*ast.Ident)
			if !ok || pkg.Obj != nil { // shadowed: a local, not the package
				return true
			}
			if timeAlias != "" && pkg.Name == timeAlias && x.Sel.Name == "Now" {
				flag(x, "time.Now breaks run-to-run determinism; thread a clock or add //detlint:allow")
			}
			if randAlias != "" && pkg.Name == randAlias && !globalRandAllowed[x.Sel.Name] {
				flag(x, "math/rand global source (rand.%s) is unseeded shared state; use rand.New(rand.NewSource(seed))", x.Sel.Name)
			}
		case *ast.ExprStmt:
			if name, method := droppedErrCall(x.X); name != "" && method != "Close" {
				flag(x, "the error %s returns is discarded; handle it or add //detlint:allow with the reason", name)
			}
		case *ast.DeferStmt:
			if name, _ := droppedErrCall(x.Call); name != "" {
				flag(x, "the error deferred %s returns is discarded; handle it or add //detlint:allow with the reason", name)
			}
		case *ast.AssignStmt:
			if len(x.Rhs) == 1 && allBlank(x.Lhs) {
				if name, _ := droppedErrCall(x.Rhs[0]); name != "" {
					flag(x, "the error %s returns is assigned to _; handle it or add //detlint:allow with the reason", name)
				}
			}
		case *ast.RangeStmt:
			var name string
			switch e := ast.Unparen(x.X).(type) {
			case *ast.Ident:
				name = e.Name
			case *ast.SelectorExpr:
				name = e.Sel.Name
			}
			if name != "" && mapNames[name] && !isKeyCollect(x) {
				flag(x, "range over map %q has nondeterministic order; iterate sorted keys or add //detlint:allow", name)
			}
		}
		return true
	})
	return out
}

// errMethods are the methods whose error detlint requires a caller to
// handle: a failed write, encode or close loses output, and after a
// response's status line the error is the only report of it.
var errMethods = map[string]bool{"Write": true, "Encode": true, "Close": true}

// droppedErrCall returns the call ("x.Name") and the method name when
// e is a call of a method in errMethods, whose error the enclosing
// statement then drops, and "" otherwise. Without a type checker, any
// method of that name counts.
func droppedErrCall(e ast.Expr) (call, method string) {
	c, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return "", ""
	}
	sel, ok := c.Fun.(*ast.SelectorExpr)
	if !ok || !errMethods[sel.Sel.Name] {
		return "", ""
	}
	method = sel.Sel.Name
	if id, ok := sel.X.(*ast.Ident); ok {
		return id.Name + "." + method, method
	}
	return method, method
}

// allBlank reports whether every expression is the blank identifier.
func allBlank(es []ast.Expr) bool {
	for _, e := range es {
		if id, ok := e.(*ast.Ident); !ok || id.Name != "_" {
			return false
		}
	}
	return true
}

// isKeyCollect recognizes the canonical deterministic-iteration
// prelude — `for k := range m { keys = append(keys, k) }` — whose
// order cannot leak because the keys are (by convention) sorted
// before use. Only the exact single-append shape qualifies.
func isKeyCollect(r *ast.RangeStmt) bool {
	key, ok := r.Key.(*ast.Ident)
	if !ok || r.Value != nil || len(r.Body.List) != 1 {
		return false
	}
	asg, ok := r.Body.List[0].(*ast.AssignStmt)
	if !ok || len(asg.Lhs) != 1 || len(asg.Rhs) != 1 {
		return false
	}
	call, ok := asg.Rhs[0].(*ast.CallExpr)
	if !ok || len(call.Args) != 2 {
		return false
	}
	fn, ok := call.Fun.(*ast.Ident)
	if !ok || fn.Name != "append" {
		return false
	}
	last, ok := call.Args[1].(*ast.Ident)
	return ok && last.Name == key.Name
}

// allowedLines collects the lines covered by //detlint:allow
// directives: the directive's own line and the one below it.
func allowedLines(fset *token.FileSet, f *ast.File) map[int]bool {
	out := map[int]bool{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, "//detlint:allow") {
				continue
			}
			line := fset.Position(c.Pos()).Line
			out[line] = true
			out[line+1] = true
		}
	}
	return out
}
