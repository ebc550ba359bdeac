// Command detlint lints the repo's own determinism invariants. The
// harness promises byte-identical tables and event streams for a
// given seed, and the store promises byte-identical shards; the three
// classic ways Go code breaks such promises are wall-clock reads,
// the global math/rand source, and iteration over maps.
//
// detlint type-checks each package of its scope from source with
// go/types, importing its dependencies from compiler export data, and
// flags the findings below in the scope's files. A file named on its
// own is checked together with the rest of its package, and only its
// own findings are reported. The default scope is the harness,
// tracing and store packages with events.go, and the Table I path:
// the validator, the testbench, the Algorithm-1 core, the corrector,
// AutoBench and AutoEval, whose text-keyed memos must never be ranged
// over to order work, and the simulator, mutation, Verilog, LLM-stub,
// seed-stream, dataset and four-state logic packages under them.
//
// The scope also takes in the daemon's serving code (service.go,
// metrics.go, cmd/correctbenchd), for the last check below.
//
// It flags:
//
//   - uses of the function time.Now
//   - uses of math/rand's package-level functions that read the global
//     source (rand.Intn, rand.Seed, ...); constructing seeded
//     generators via rand.New/NewSource/NewZipf, the methods of a
//     *rand.Rand and the rand.Rand/Source types stay legal
//   - range statements whose operand's type is a map, or a call of
//     maps.Keys, maps.Values or maps.All (under any import name), whose
//     iterators yield in map order, unless the body only appends each
//     key to a slice (the collect-then-sort prelude); ranging over
//     slices.Sorted(maps.Keys(m)) is the deterministic form
//   - a discarded error from a call of a method named Write, Encode or
//     Close whose last result is an error: its result assigned to _, a
//     deferred call, or — for Write and Encode — a call made as a
//     statement. A plain x.Close() statement is left alone: the Go
//     convention closes on error paths and after reads that way.
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
// Exit status: 0 clean, 1 findings, 2 on parse, type or usage errors.
package main

import (
	"cmp"
	"flag"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
)

var defaultScope = []string{
	"internal/harness", "internal/obs", "internal/store", "events.go",
	"internal/validator", "internal/testbench", "internal/core",
	"internal/corrector", "internal/autobench", "internal/autoeval",
	"internal/sim", "internal/mutate", "internal/verilog", "internal/llm",
	"internal/rng", "internal/dataset", "internal/logic",
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
	findings, files, err := lint(scope)
	if err != nil {
		fmt.Fprintf(os.Stderr, "detlint: %v\n", err)
		os.Exit(2)
	}
	for _, f := range findings {
		fmt.Printf("%s:%d: %s\n", f.pos.Filename, f.pos.Line, f.msg)
	}
	if len(findings) > 0 {
		fmt.Printf("detlint: %d finding(s) in %d file(s)\n", len(findings), files)
		os.Exit(1)
	}
}

// lint type-checks the package of every directory and file in scope
// and returns the findings in the scope's files, ordered by position,
// with the number of files linted.
func lint(scope []string) ([]finding, int, error) {
	inScope := map[string]bool{}
	pkgs := map[string][]string{} // package directory -> its files
	imports := map[string]bool{}
	for _, path := range scope {
		info, err := os.Stat(path)
		if err != nil {
			return nil, 0, err
		}
		dir := filepath.Clean(path)
		if !info.IsDir() {
			inScope[dir] = true
			dir = filepath.Dir(dir)
		}
		files, imps, err := packageFiles(dir)
		if err != nil {
			return nil, 0, err
		}
		if info.IsDir() {
			for _, f := range files {
				inScope[f] = true
			}
		}
		pkgs[dir] = files
		for _, imp := range imps {
			imports[imp] = true
		}
	}

	exports, err := goExports(slices.Sorted(maps.Keys(imports)))
	if err != nil {
		return nil, 0, err
	}
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if exports[path] == "" {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(exports[path])
	})
	var findings []finding
	linted := 0
	for _, dir := range slices.Sorted(maps.Keys(pkgs)) {
		var files []*ast.File
		for _, path := range pkgs[dir] {
			f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
			if err != nil {
				return nil, 0, err
			}
			files = append(files, f)
		}
		info := &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Uses:  map[*ast.Ident]types.Object{},
		}
		conf := types.Config{Importer: imp}
		if _, err := conf.Check(dir, fset, files, info); err != nil {
			return nil, 0, err
		}
		for i, f := range files {
			if path := pkgs[dir][i]; inScope[path] {
				delete(inScope, path)
				findings = append(findings, lintFile(fset, f, info)...)
				linted++
			}
		}
	}
	if len(inScope) > 0 {
		return nil, 0, fmt.Errorf("%s is not a non-test Go file of its package", slices.Min(slices.Collect(maps.Keys(inScope))))
	}
	slices.SortFunc(findings, func(a, b finding) int {
		return cmp.Or(cmp.Compare(a.pos.Filename, b.pos.Filename), cmp.Compare(a.pos.Line, b.pos.Line))
	})
	return findings, linted, nil
}

// goExports maps each package the imports reach to its compiler export
// data, which one `go list -export` run finds in the build cache (or
// builds there): the standard library and the module's packages are
// imported from it, so only the scope itself is type-checked from
// source.
func goExports(imports []string) (map[string]string, error) {
	out := map[string]string{}
	if len(imports) == 0 {
		return out, nil
	}
	cmd := exec.Command("go", append([]string{"list", "-deps", "-export", "-f", "{{.ImportPath}}\t{{.Export}}"}, imports...)...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %w", err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(stdout)), "\n") {
		path, export, _ := strings.Cut(line, "\t")
		out[path] = export
	}
	return out, nil
}

// packageFiles returns the paths of the non-test Go files that make up
// the package in dir under the default build context, and its imports.
func packageFiles(dir string) ([]string, []string, error) {
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, nil, err
	}
	paths := make([]string, len(bp.GoFiles))
	for i, name := range bp.GoFiles {
		paths[i] = filepath.Join(dir, name)
	}
	return paths, bp.Imports, nil
}

// randConstructors are math/rand's package-level functions that do not
// touch the global source.
var randConstructors = map[string]bool{"New": true, "NewSource": true, "NewZipf": true}

func lintFile(fset *token.FileSet, f *ast.File, info *types.Info) []finding {
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
		case *ast.Ident:
			fn, ok := info.Uses[x].(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Signature().Recv() != nil {
				return true
			}
			switch fn.Pkg().Path() {
			case "time":
				if fn.Name() == "Now" {
					flag(x, "time.Now breaks run-to-run determinism; thread a clock or add //detlint:allow")
				}
			case "math/rand":
				if !randConstructors[fn.Name()] {
					flag(x, "math/rand global source (rand.%s) is unseeded shared state; use rand.New(rand.NewSource(seed))", fn.Name())
				}
			}
		case *ast.ExprStmt:
			if name, method := droppedErrCall(info, x.X); name != "" && method != "Close" {
				flag(x, "the error %s returns is discarded; handle it or add //detlint:allow with the reason", name)
			}
		case *ast.DeferStmt:
			if name, _ := droppedErrCall(info, x.Call); name != "" {
				flag(x, "the error deferred %s returns is discarded; handle it or add //detlint:allow with the reason", name)
			}
		case *ast.AssignStmt:
			if len(x.Rhs) == 1 && allBlank(x.Lhs) {
				if name, _ := droppedErrCall(info, x.Rhs[0]); name != "" {
					flag(x, "the error %s returns is assigned to _; handle it or add //detlint:allow with the reason", name)
				}
			}
		case *ast.RangeStmt:
			if isKeyCollect(x) {
				break
			}
			if _, isMap := info.TypeOf(x.X).Underlying().(*types.Map); isMap {
				flag(x, "range over map %s has nondeterministic order; iterate sorted keys or add //detlint:allow", types.ExprString(x.X))
			} else if name := mapIterator(info, x.X); name != "" {
				flag(x, "range over maps.%s yields map order; range over slices.Sorted(maps.Keys(m)) or add //detlint:allow", name)
			}
		}
		return true
	})
	return out
}

// mapIterators are the maps functions whose iterators yield map order.
var mapIterators = map[string]bool{"Keys": true, "Values": true, "All": true}

// mapIterator returns the function's name when e calls maps.Keys,
// maps.Values or maps.All under any import name, and "" otherwise.
func mapIterator(info *types.Info, e ast.Expr) string {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return ""
	}
	fun := ast.Unparen(call.Fun)
	if ix, ok := fun.(*ast.IndexExpr); ok { // an explicit instantiation, maps.Keys[M]
		fun = ix.X
	}
	if sel, ok := fun.(*ast.SelectorExpr); ok {
		fun = sel.Sel
	}
	id, _ := fun.(*ast.Ident)
	if fn, ok := info.Uses[id].(*types.Func); ok && fn.Pkg() != nil && fn.Pkg().Path() == "maps" && mapIterators[fn.Name()] {
		return fn.Name()
	}
	return ""
}

// errMethods are the methods whose error detlint requires a caller to
// handle: a failed write, encode or close loses output, and after a
// response's status line the error is the only report of it.
var errMethods = map[string]bool{"Write": true, "Encode": true, "Close": true}

// droppedErrCall returns the call's text ("x.Name") and the method
// name when e is a call of a method in errMethods whose last result is
// an error, which the enclosing statement then drops, and "" otherwise.
func droppedErrCall(info *types.Info, e ast.Expr) (call, method string) {
	c, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return "", ""
	}
	sel, ok := c.Fun.(*ast.SelectorExpr)
	if !ok || !errMethods[sel.Sel.Name] {
		return "", ""
	}
	sig, ok := info.TypeOf(sel).(*types.Signature)
	if !ok || sig.Results().Len() == 0 {
		return "", ""
	}
	last := sig.Results().At(sig.Results().Len() - 1).Type()
	if !types.Identical(last, types.Universe.Lookup("error").Type()) {
		return "", ""
	}
	return types.ExprString(sel), sel.Sel.Name
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
