// Package validator implements CorrectBench's scenario-based testbench
// self-validator: it asks the LLM for a group of N_R "imperfect" RTL
// implementations of the same specification, simulates them against the
// candidate testbench, assembles the RTL-Scenario (RS) boolean matrix,
// and judges the testbench with a column/row criterion (Section III-B
// of the paper). Because the imperfect RTLs' faults are (approximately)
// independent, a column that is red for most RTLs indicts the testbench
// rather than the RTLs.
//
// The group is fixed per task, so NewGroup elaborates each distinct
// candidate source once — equal candidates, such as the golden copies,
// share one design — and compiles the designs into a testbench.DUTSet
// over the golden design: lanes of sim batch programs, and a one-lane
// program of its own for a design whose layout differs from the
// golden's. A design shared by several candidates is simulated once,
// as one lane, and
// gives each of their rows. Validation is record-then-compare
// (testbench.RunBatchContext) on the testbench's trace store, which the
// generator shares across the cell: the checker is recorded once per
// checker design and scenario, and the candidates once per scenario —
// Algorithm 1's corrector rewrites only the checker, so every round
// after a correction compares the new checker's trace with the group's
// stored lanes and simulates no candidate, and a reboot simulates only
// the scenarios the group has not seen. Rows are bit-identical to
// simulating each candidate on its own.
package validator

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"

	"correctbench/internal/dataset"
	"correctbench/internal/llm"
	"correctbench/internal/mutate"
	"correctbench/internal/obs"
	"correctbench/internal/sim"
	"correctbench/internal/testbench"
	"correctbench/internal/verilog"
)

// Criterion is a validation rule over the RS matrix.
type Criterion struct {
	Name string
	// WrongFrac is the fraction of valid rows that must be red in a
	// column for the scenario to be flagged wrong (1.0, 0.7, 0.5).
	WrongFrac float64
	// GreenRowFrac, when positive, applies the paper's override: if
	// more than this fraction of RTLs match the testbench on every
	// scenario (fully green rows), the testbench is deemed correct.
	GreenRowFrac float64
}

// The three criteria studied in Section IV-C.
var (
	Wrong100 = Criterion{Name: "100%-wrong", WrongFrac: 1.0}
	Wrong70  = Criterion{Name: "70%-wrong", WrongFrac: 0.7, GreenRowFrac: 0.25}
	Wrong50  = Criterion{Name: "50%-wrong", WrongFrac: 0.5, GreenRowFrac: 0.25}
)

// Criteria lists the studied criteria in paper order.
func Criteria() []Criterion { return []Criterion{Wrong100, Wrong70, Wrong50} }

// CriterionByName resolves a criterion name.
func CriterionByName(name string) (Criterion, error) {
	for _, c := range Criteria() {
		if c.Name == name || strings.TrimSuffix(c.Name, "-wrong") == name {
			return c, nil
		}
	}
	return Criterion{}, fmt.Errorf("validator: unknown criterion %q", name)
}

// Matrix is the RS matrix: Rows[i][j] is true (green) when RTL i agrees
// with the testbench on scenario j.
type Matrix struct {
	Rows      [][]bool
	Discarded int // RTLs dropped for syntax/simulation failures
}

// NR returns the number of valid rows.
func (m *Matrix) NR() int { return len(m.Rows) }

// NS returns the number of scenarios (columns).
func (m *Matrix) NS() int {
	if len(m.Rows) == 0 {
		return 0
	}
	return len(m.Rows[0])
}

// ColumnRedFrac returns the fraction of rows that are red in column j.
func (m *Matrix) ColumnRedFrac(j int) float64 {
	if m.NR() == 0 {
		return 0
	}
	red := 0
	for _, row := range m.Rows {
		if !row[j] {
			red++
		}
	}
	return float64(red) / float64(m.NR())
}

// GreenRowFrac returns the fraction of rows that are fully green.
func (m *Matrix) GreenRowFrac() float64 {
	if m.NR() == 0 {
		return 0
	}
	green := 0
	for _, row := range m.Rows {
		all := true
		for _, ok := range row {
			if !ok {
				all = false
				break
			}
		}
		if all {
			green++
		}
	}
	return float64(green) / float64(m.NR())
}

// Render draws the matrix as ASCII art (Fig. 4): '#' red, '.' green.
func (m *Matrix) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "RS matrix: %d RTLs x %d scenarios (%d discarded)\n", m.NR(), m.NS(), m.Discarded)
	sb.WriteString("      scenario ")
	for j := 1; j <= m.NS(); j++ {
		sb.WriteString(fmt.Sprintf("%2d", j%100))
	}
	sb.WriteString("\n")
	for i, row := range m.Rows {
		fmt.Fprintf(&sb, "rtl %2d         ", i+1)
		for _, green := range row {
			if green {
				sb.WriteString(" .")
			} else {
				sb.WriteString(" #")
			}
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// Report is the validator's verdict plus the bug information handed to
// the corrector.
type Report struct {
	Correct bool
	// Wrong, CorrectScenarios and Uncertain are 1-based scenario
	// indexes classified by the criterion.
	Wrong            []int
	CorrectScenarios []int
	Uncertain        []int
	Matrix           *Matrix
	// SimulationBroken is set when the testbench itself cannot be
	// parsed or simulated; no scenario information is available.
	SimulationBroken bool
}

// RTLCandidate is one generated imperfect RTL.
type RTLCandidate struct {
	Source string
	// Correct marks candidates generated without injected faults
	// (known only to the experiment harness, never the criterion).
	Correct bool
	// SyntaxBad marks candidates whose text was corrupted.
	SyntaxBad bool
}

// GenerateRTLGroup produces the validator's N_R imperfect RTL designs
// per the paper's regeneration rule: candidates with syntax errors are
// kept (their rows will be discarded), but if more than half of the
// group is syntax-broken, broken entries are regenerated until at least
// half are clean.
func GenerateRTLGroup(p *dataset.Problem, prof *llm.Profile, nr int, rng *rand.Rand, acct *llm.Accountant) ([]RTLCandidate, error) {
	golden, err := p.Module()
	if err != nil {
		return nil, err
	}
	gen := func() RTLCandidate {
		acct.Charge(rng, prof.TokensRTLIn+len(p.Spec)/4, prof.TokensRTLOut)
		if rng.Float64() < prof.RTLSyntax {
			return RTLCandidate{Source: mutate.CorruptSyntax(verilog.PrintModule(golden), rng), SyntaxBad: true}
		}
		if rng.Float64() < prof.RTLCorrect {
			return RTLCandidate{Source: verilog.PrintModule(golden), Correct: true}
		}
		mut, _, _ := mutate.Mutate(golden, rng, prof.SampleRTLFaultCount(rng))
		return RTLCandidate{Source: verilog.PrintModule(mut)}
	}
	out := make([]RTLCandidate, nr)
	for i := range out {
		out[i] = gen()
	}
	for attempts := 0; attempts < 8; attempts++ {
		bad := 0
		for _, c := range out {
			if c.SyntaxBad {
				bad++
			}
		}
		if bad*2 <= nr {
			break
		}
		for i := range out {
			if out[i].SyntaxBad {
				out[i] = gen()
			}
		}
	}
	return out, nil
}

// Group is a task's imperfect-RTL group prepared for validation. The
// group is fixed for the whole task (Algorithm 1 validates every
// testbench of a task against the same N_R RTLs), so each distinct
// candidate source is parsed and elaborated once, equal candidates
// share the design, and the elaborable designs are compiled once as
// lanes of batch programs over the golden design, one lane per
// distinct design. A round simulates them in one batched pass over the
// scenarios the testbench's trace store does not yet hold for these
// programs, and stores what it records; every other scenario is read
// from the store. The programs are the store's key for the group's
// lanes, so every testbench of a task that shares a store — its
// corrections and reboots — replays them. A Group is fixed by NewGroup
// and never written after, so it is safe for concurrent
// BuildMatrix calls.
type Group struct {
	// Candidates is the RTL group in generation order, the row order
	// of every RS matrix built from it.
	Candidates []RTLCandidate

	// designs holds each candidate's design, shared by equal sources;
	// nil when elaboration failed (a discarded row).
	designs []*sim.Design
	duts    []*sim.Design // the non-nil designs, in group order, repeats included
	// set is duts compiled over the golden design.
	set *testbench.DUTSet
}

// NewGroup elaborates every distinct candidate source of an RTL group
// for problem p and compiles the elaborable designs into batch
// programs. A candidate that fails to parse or elaborate is kept as a
// discarded row, never an error; the returned error is non-nil only
// when p's golden design cannot be elaborated or ctx was cancelled.
// Elaboration draws no randomness, so building the group leaves the
// task's rng stream untouched.
func NewGroup(ctx context.Context, p *dataset.Problem, cands []RTLCandidate) (*Group, error) {
	base, err := p.Elaborate()
	if err != nil {
		return nil, err
	}
	g := &Group{Candidates: cands, designs: make([]*sim.Design, len(cands))}
	// elaborated holds each distinct source's design, nil when it does
	// not elaborate.
	elaborated := make(map[string]*sim.Design, len(cands))
	for i, c := range cands {
		d, ok := elaborated[c.Source]
		if !ok {
			var err error
			if d, err = sim.ElaborateSourceContext(ctx, c.Source, p.Top); err != nil {
				d = nil
			}
			elaborated[c.Source] = d
		}
		if d == nil {
			continue
		}
		g.designs[i] = d
		g.duts = append(g.duts, d)
	}
	// Elaboration does not poll ctx; a cancellation during it is
	// reported here, before the compile.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	endCompile := obs.Time(ctx, obs.PhaseCompile)
	g.set = testbench.NewDUTSet(base, g.duts)
	endCompile()
	return g, nil
}

// BuildMatrix judges every candidate of the group against the
// testbench in one batched pass: the DUT-independent checker and the
// candidates' lanes are each recorded once per scenario on the
// testbench's trace store, and each row compares a lane's trace with
// the checker's. Rows follow group order;
// rows for syntax-broken or unsimulatable RTLs are discarded. A broken
// testbench (parse/elaboration/checker failure) yields ok == false
// instead of a matrix. The returned error is non-nil only when ctx was
// cancelled; a cancelled simulation is never misread as a discarded
// RTL row or a broken testbench.
func BuildMatrix(ctx context.Context, tb *testbench.Testbench, g *Group) (*Matrix, bool, error) {
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	if !tb.SyntaxOK() {
		return nil, false, nil
	}
	outs, err := tb.RunBatchContext(ctx, g.set, false)
	if err != nil {
		return nil, false, err
	}
	m := &Matrix{}
	for _, d := range g.designs {
		if d == nil {
			m.Discarded++
			continue
		}
		o := outs[0]
		outs = outs[1:]
		if o.Err != nil {
			if errors.Is(o.Err, testbench.ErrChecker) {
				// The testbench's own checker is broken.
				return nil, false, nil
			}
			m.Discarded++
			continue
		}
		m.Rows = append(m.Rows, o.Res.ScenarioPass)
	}
	return m, true, nil
}

// Judge applies the criterion to a matrix.
func (c Criterion) Judge(m *Matrix) *Report {
	rep := &Report{Matrix: m, Correct: true}
	if m.NR() == 0 {
		// No information: treat as wrong with no bug info, forcing a
		// reboot rather than a blind pass.
		rep.Correct = false
		rep.SimulationBroken = true
		return rep
	}
	if c.GreenRowFrac > 0 && m.GreenRowFrac() > c.GreenRowFrac {
		// Green-row override: enough RTLs match the testbench on every
		// scenario, so the testbench is deemed correct.
		for j := 0; j < m.NS(); j++ {
			rep.CorrectScenarios = append(rep.CorrectScenarios, j+1)
		}
		return rep
	}
	for j := 0; j < m.NS(); j++ {
		red := m.ColumnRedFrac(j)
		switch {
		case red >= c.WrongFrac:
			rep.Wrong = append(rep.Wrong, j+1)
			rep.Correct = false
		case red == 0:
			rep.CorrectScenarios = append(rep.CorrectScenarios, j+1)
		default:
			rep.Uncertain = append(rep.Uncertain, j+1)
		}
	}
	return rep
}

// Validate runs the full validation of one testbench under the
// criterion. The error is non-nil only when ctx was cancelled before
// the verdict was reached.
func (c Criterion) Validate(ctx context.Context, tb *testbench.Testbench, g *Group) (*Report, error) {
	m, ok, err := BuildMatrix(ctx, tb, g)
	if err != nil {
		return nil, err
	}
	if !ok {
		return &Report{Correct: false, SimulationBroken: true}, nil
	}
	return c.Judge(m), nil
}
