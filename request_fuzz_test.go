package correctbench

import (
	"encoding/json"
	"reflect"
	"testing"

	"correctbench/internal/autobench"
	"correctbench/internal/dataset"
	"correctbench/internal/harness"
	"correctbench/internal/llm"
	"correctbench/internal/verilog"
	"correctbench/internal/vstatic"
)

// FuzzSubmitRequest feeds arbitrary bodies to the POST /v1/experiments
// decoder: JSON into submitRequest, then ExperimentSpec.resolve, which
// names every user error before a job exists. Neither may panic. The
// corpus is seeded with the bodies the benchmark driver and the
// service tests send.
func FuzzSubmitRequest(f *testing.F) {
	for _, body := range []string{
		`{"seed":42,"reps":1,"workers":2,"stream":true}`,
		`{"seed":31,"reps":1,"problems":["mux2_w4","cnt4","halfadd","dff"]}`,
		`{"seed":7,"reps":1,"problems":["halfadd","dff"],"stream":true}`,
		`{"seed":3,"reps":2,"llm":"gpt-4o-mini","criterion":"50%-wrong","methods":["CorrectBench","Baseline"]}`,
		`{"seed":1,"max_corrections":0,"max_reboots":0,"rtl_group_size":1,"no_store":true,"no_trace":true}`,
		`{"seed":1,"rtl_group_size":0}`,
		`{"seed":1,"max_corrections":-1}`,
		`{"seed":1,"problems":["nope"]}`,
		`{"seed":1,"methods":["Nope"]}`,
		`{"seed":1,"llm":"gpt-9"}`,
		`{"seed":1,"problems":null,"methods":null}`,
		`{"seed":1,"reps":1099511627776,"problems":["halfadd"]}`,
		`{"seed":1,"reps":100,"max_corrections":50,"max_reboots":50,"rtl_group_size":100}`,
		`{"seed":1,"max_corrections":51,"max_reboots":51,"rtl_group_size":101}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req submitRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return
		}
		hcfg, err := req.ExperimentSpec.resolve()
		if err != nil {
			return
		}
		// A resolved spec names only known problems and methods.
		for _, p := range hcfg.Problems {
			if p == nil {
				t.Fatalf("resolve admitted a nil problem for %s", body)
			}
		}
		// ... and asks for bounded work.
		if hcfg.Reps > maxReps || len(hcfg.Problems) > len(dataset.All()) ||
			!inRange(hcfg.MaxCorrections, 0, maxCorrectionsCap) || !inRange(hcfg.MaxReboots, 0, maxRebootsCap) ||
			!inRange(hcfg.NR, 1, maxRTLGroupSize) {
			t.Fatalf("resolve admitted out-of-range work for %s: reps %d, %d problems", body, hcfg.Reps, len(hcfg.Problems))
		}
	})
}

// FuzzGradeRequest feeds arbitrary bodies to the POST /v1/grade
// decoder: JSON into gradeRequest, then TaskSpec.resolve, then — for a
// known problem carrying a testbench — wireToTestbench, which emits
// the driver track from the untrusted scenario names and stimulus
// steps. None may panic, the rebuilt testbench's SyntaxOK must equal a
// fresh parse of both tracks, and its checker lint must equal the lint
// of a fresh parse. The corpus is seeded with the bodies the benchmark
// driver and the service tests send, and with a scenario name that
// once ended the driver's comment line.
func FuzzGradeRequest(f *testing.F) {
	halfadd, err := json.Marshal(ProblemByName("halfadd").Source)
	if err != nil {
		f.Fatal(err)
	}
	for _, body := range []string{
		`{"problem":"adder4","seed":1}`,
		`{"problem":"halfadd","seed":1}`,
		`{"problem":"nope"}`,
		`{"problem":"adder4","llm":"gpt-9"}`,
		`{"problem":"cnt8","seed":2,"criterion":"70%-wrong","max_corrections":1,"max_reboots":0,"rtl_group_size":3}`,
		`{"problem":"halfadd","seed":1,"testbench":{"checker_source":` + string(halfadd) +
			`,"scenarios":[{"name":"s1","steps":[{"a":0,"b":0},{"a":1,"b":1},{"a":1,"b":0}]}]}}`,
		`{"problem":"cnt8","seed":24301,"testbench":{"scenarios":[{"steps":[{"rst":1},{"rst":0,"en":1}]},{"name":"","steps":[]}],"checker_source":"","checker_top":"top_module"}}`,
		`{"problem":"mux2_w4","testbench":{"scenarios":[{"steps":[{"sel":18446744073709551615,"a":15,"b":0,"nope":1}]}],"checker_source":"module m; endmodule"}}`,
		`{"problem":"dff","testbench":{"scenarios":null}}`,
		`{"problem":"halfadd","seed":1,"testbench":{"checker_source":` + string(halfadd) +
			`,"scenarios":[{"name":"a\nendmodule","steps":[{"a":1,"b":1}]}]}}`,
		`{"problem":"adder4","rtl_group_size":1099511627776}`,
		`{"problem":"adder4","max_corrections":51,"max_reboots":50,"rtl_group_size":100}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req gradeRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return
		}
		opt, err := req.TaskSpec.resolve()
		if err != nil {
			return
		}
		if opt.NR < 1 || opt.NR > maxRTLGroupSize || opt.MaxCorrections < 0 || opt.MaxCorrections > maxCorrectionsCap ||
			opt.MaxReboots < 0 || opt.MaxReboots > maxRebootsCap {
			t.Fatalf("resolve admitted out-of-range work for %s: %+v", body, opt)
		}
		p := dataset.ByName(req.Problem)
		if p == nil || req.Testbench == nil {
			return
		}
		tb := wireToTestbench(p, req.Testbench)
		if tb.ScenarioCount() != len(req.Testbench.Scenarios) {
			t.Fatalf("wire testbench with %d scenarios rebuilt with %d", len(req.Testbench.Scenarios), tb.ScenarioCount())
		}
		if got, want := tb.SyntaxOK(), freshSyntaxOK(tb); got != want {
			t.Fatalf("SyntaxOK = %v, fresh parse = %v for %s", got, want, body)
		}
		if got, want := lintChecker(tb), freshLint(tb); !reflect.DeepEqual(got, want) {
			t.Fatalf("lintChecker = %v, fresh lint = %v for %s", got, want, body)
		}
	})
}

// freshSyntaxOK is the unmemoized Eval0 reference: parse both tracks,
// the driver as Driver() renders it.
func freshSyntaxOK(tb *Testbench) bool {
	if _, err := verilog.Parse(tb.Driver()); err != nil {
		return false
	}
	_, err := verilog.Parse(tb.CheckerSource)
	return err == nil
}

// freshLint is the /v1/grade lint on a fresh parse of the checker.
func freshLint(tb *Testbench) []vstatic.Diagnostic {
	if tb.CheckerSource == "" {
		return nil
	}
	results, err := vstatic.AnalyzeSource(tb.CheckerSource, tb.CheckerTop)
	if err != nil {
		return nil
	}
	var out []vstatic.Diagnostic
	for _, r := range results {
		out = append(out, r.Diags...)
	}
	return out
}

// TestWireTestbenchSyntaxOKMatchesFreshParse covers the path of every
// /v1/grade input the benchmark sends: each problem's AutoBench and
// Baseline testbench, drawn as the benchmark draws variant 0 at seed
// 42, goes to its wire form, through JSON and back through
// wireToTestbench. The rebuilt driver is emitted from the scenarios,
// so it must parse, SyntaxOK must equal a fresh parse of both tracks
// (a generated checker may be corrupted), and the lint of the memo's
// parse must equal the lint of a fresh parse.
func TestWireTestbenchSyntaxOKMatchesFreshParse(t *testing.T) {
	prof := llm.GPT4o()
	linted := 0 // testbenches whose checker has diagnostics
	for _, p := range dataset.All() {
		for _, m := range []harness.Method{harness.MethodAutoBench, harness.MethodBaseline} {
			gen, err := autobench.ForMethod(string(m), prof)
			if err != nil {
				t.Fatal(err)
			}
			r := harness.CellStream(42, m, 0, p.Name).Rand()
			var acct llm.Accountant
			gtb, err := gen.Generate(p, prof.SampleTrait(p.Difficulty, p.Kind == dataset.SEQ, r), r, &acct)
			if err != nil {
				t.Fatalf("%s/%s: %v", p.Name, m, err)
			}
			body, err := json.Marshal(toWire(gtb))
			if err != nil {
				t.Fatal(err)
			}
			var back wireTestbench
			if err := json.Unmarshal(body, &back); err != nil {
				t.Fatal(err)
			}
			tb := wireToTestbench(p, &back)
			if _, err := verilog.Parse(tb.Driver()); err != nil {
				t.Errorf("%s/%s: rebuilt driver does not parse: %v", p.Name, m, err)
			}
			if got, want := tb.SyntaxOK(), freshSyntaxOK(tb); got != want {
				t.Errorf("%s/%s: SyntaxOK = %v, fresh parse = %v", p.Name, m, got, want)
			}
			got, want := lintChecker(tb), freshLint(tb)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s/%s: lintChecker = %v, fresh lint = %v", p.Name, m, got, want)
			}
			if len(want) > 0 {
				linted++
			}
		}
	}
	t.Logf("%d wire checkers have lint diagnostics", linted)
	if linted == 0 {
		t.Error("no wire checker has a lint diagnostic; the lint comparison checked only empty lists")
	}
}

// toWire is the /v1/grade wire form of tb, as the benchmark sends it.
func toWire(tb *Testbench) wireTestbench {
	w := wireTestbench{CheckerSource: tb.CheckerSource, CheckerTop: tb.CheckerTop}
	for _, sc := range tb.Scenarios {
		ws := wireScenario{Name: sc.Name}
		for _, st := range sc.Steps {
			ws.Steps = append(ws.Steps, st.Inputs)
		}
		w.Scenarios = append(w.Scenarios, ws)
	}
	return w
}

// inRange reports whether an optional override is unset or in [lo, hi].
func inRange(v *int, lo, hi int) bool {
	return v == nil || *v >= lo && *v <= hi
}
