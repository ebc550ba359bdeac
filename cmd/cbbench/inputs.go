package main

import (
	"encoding/json"
	"fmt"
	"sync"

	"correctbench"
	"correctbench/internal/autobench"
	"correctbench/internal/dataset"
	"correctbench/internal/harness"
	"correctbench/internal/llm"
	"correctbench/internal/rng"
	"correctbench/internal/testbench"
)

// Every input the daemon receives is generated here from the seed: the
// experiment specs and the wire-form testbenches. The same seed gives
// byte-identical inputs.

// criterion is the paper's default validation criterion, named
// explicitly in every spec.
const criterion = "70%-wrong"

// wireVariants is how many testbenches each (problem, method) pair
// contributes to grade_wire: the ones its AutoBench and Baseline cells
// would generate at reps 0..wireVariants-1.
const wireVariants = 10

func problemNames(ps []*dataset.Problem) []string {
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.Name
	}
	return out
}

// gridSeed is the experiment seed of grid_cold's spec, whatever the
// workload seed. The cost of an Algorithm-1 cell depends on its random
// draws (a task the simulated LLM misunderstands runs the validator up
// to 44 times, one it gets right once or twice), so the whole grid's
// cost differs by a third from one experiment seed to the next: a
// workload seed that changed the cells would make cells_per_s measure
// the seed, not the code.
const gridSeed = 42

// gridSpec is the Table I grid that grid_cold computes and replay_warm
// replays: every configured problem under all three methods, one
// repetition, at gridSeed. The workload seed shuffles the order of the
// problems, which is the grid's dispatch and release order; the cells,
// and so the work and Table I, are the same for every workload seed.
func gridSpec(cfg config) correctbench.ExperimentSpec {
	names := problemNames(cfg.problems)
	r := rng.New(cfg.seed).Child("cbbench", "grid_cold").Rand()
	r.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	return correctbench.ExperimentSpec{
		Seed: gridSeed, Reps: 1, Criterion: criterion, Workers: cfg.workers, Problems: names,
	}
}

// specGrid resolves a spec's grid the way the daemon does: methods in
// spec order (default all three), problems in spec order (default the
// whole dataset), at least one rep.
func specGrid(s correctbench.ExperimentSpec) (methods, problems []string, reps int) {
	methods = s.Methods
	if len(methods) == 0 {
		for _, m := range harness.AllMethods() {
			methods = append(methods, string(m))
		}
	}
	problems = s.Problems
	if len(problems) == 0 {
		problems = problemNames(dataset.All())
	}
	return methods, problems, max(s.Reps, 1)
}

// wireTB is the /v1/grade testbench wire form.
type wireTB struct {
	Scenarios     []wireScenario `json:"scenarios"`
	CheckerSource string         `json:"checker_source"`
	CheckerTop    string         `json:"checker_top,omitempty"`
}

type wireScenario struct {
	Name  string              `json:"name,omitempty"`
	Steps []map[string]uint64 `json:"steps"`
}

func toWire(tb *testbench.Testbench) *wireTB {
	w := &wireTB{CheckerSource: tb.CheckerSource, CheckerTop: tb.CheckerTop}
	for _, sc := range tb.Scenarios {
		ws := wireScenario{Name: sc.Name}
		for _, st := range sc.Steps {
			ws.Steps = append(ws.Steps, st.Inputs)
		}
		w.Scenarios = append(w.Scenarios, ws)
	}
	return w
}

// fromWire rebuilds a gradable testbench from its wire form exactly as
// the daemon's /v1/grade handler does, so in-process grading sees what
// the daemon saw (a driver-track syntax error does not survive the
// wire: the driver is re-emitted from the scenarios).
func fromWire(p *dataset.Problem, w *wireTB) *testbench.Testbench {
	tb := &testbench.Testbench{Problem: p, CheckerSource: w.CheckerSource, CheckerTop: w.CheckerTop, CheckerSticky: -1}
	if tb.CheckerTop == "" {
		tb.CheckerTop = p.Top
	}
	for i, sc := range w.Scenarios {
		s := testbench.Scenario{Index: i + 1, Name: sc.Name}
		if s.Name == "" {
			s.Name = fmt.Sprintf("scenario_%d", i+1)
		}
		for _, in := range sc.Steps {
			s.Steps = append(s.Steps, testbench.Step{Inputs: in})
		}
		tb.Scenarios = append(tb.Scenarios, s)
	}
	tb.DriverSource = testbench.EmitDriver(tb)
	return tb
}

// gradeInput is one /v1/grade request body and what it carries.
type gradeInput struct {
	id      int // position in generation order
	problem *dataset.Problem
	tb      *wireTB
	body    []byte
}

type gradeBody struct {
	Problem   string  `json:"problem"`
	Seed      int64   `json:"seed"`
	Testbench *wireTB `json:"testbench"`
}

func newGradeInput(id int, p *dataset.Problem, evalSeed int64, tb *wireTB) (gradeInput, error) {
	body, err := json.Marshal(gradeBody{Problem: p.Name, Seed: evalSeed, Testbench: tb})
	return gradeInput{id: id, problem: p, tb: tb, body: body}, err
}

// wireInputs generates grade_wire's testbenches: for every problem,
// the AutoBench and Baseline testbenches of reps 0..wireVariants-1 at
// this seed, graded against the grid's evaluator seed. They are
// returned in a seed-shuffled request order.
func wireInputs(cfg config) ([]gradeInput, error) {
	prof := llm.GPT4o()
	methods := []harness.Method{harness.MethodAutoBench, harness.MethodBaseline}
	per := len(methods) * wireVariants
	out := make([]gradeInput, len(cfg.problems)*per)
	errs := make([]error, len(out))
	evalSeed := harness.EvaluatorSeed(cfg.seed)
	parallel(len(out), cfg.workers, func(i int) {
		p := cfg.problems[i/per]
		m := methods[i%per/wireVariants]
		v := i % wireVariants
		gen, err := autobench.ForMethod(string(m), prof)
		if err != nil {
			errs[i] = err
			return
		}
		r := harness.CellStream(cfg.seed, m, v, p.Name).Rand()
		trait := prof.SampleTrait(p.Difficulty, p.Kind == dataset.SEQ, r)
		var acct llm.Accountant
		tb, err := gen.Generate(p, trait, r, &acct)
		if err != nil {
			errs[i] = fmt.Errorf("generate %s/%s variant %d: %w", m, p.Name, v, err)
			return
		}
		out[i], errs[i] = newGradeInput(i, p, evalSeed, toWire(tb))
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	r := rng.New(cfg.seed).Child("cbbench", "grade_wire").Rand()
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out, nil
}

// warmInputs are the set-up requests: one /v1/grade per problem of a
// golden testbench, which builds that problem's AutoEval fixtures for
// the evaluator seed of experiment seed expSeed.
func warmInputs(cfg config, expSeed int64) ([]gradeInput, error) {
	evalSeed := harness.EvaluatorSeed(expSeed)
	out := make([]gradeInput, len(cfg.problems))
	for i, p := range cfg.problems {
		tb, err := testbench.Golden(p, rng.New(cfg.seed).Child("cbbench-warm", p.Name).Rand())
		if err != nil {
			return nil, fmt.Errorf("golden testbench for %s: %w", p.Name, err)
		}
		if out[i], err = newGradeInput(i, p, evalSeed, toWire(tb)); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// parallel calls fn(0..n-1) from at most workers goroutines and waits
// for all of them.
func parallel(n, workers int, fn func(i int)) {
	var (
		mu   sync.Mutex
		next int
		wg   sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
