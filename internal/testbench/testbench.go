// Package testbench defines the hybrid testbench artifact produced by
// the generators and consumed by the validator, corrector and AutoEval:
// a list of test scenarios (stimuli for the Verilog driver track) plus
// a checker (the reference-model track).
//
// Substitution note (see DESIGN.md): AutoBench's checker track is a
// Python program that recomputes reference outputs. Here the checker is
// a Verilog reference module simulated by internal/sim; it produces
// exactly the same information (expected outputs per scenario step),
// and LLM checker bugs are modelled as AST mutations of that module,
// recorded in CheckerPlan. The plan is framework-private bookkeeping —
// the validator never reads it; only the corrector model uses it as the
// stand-in for LLM reasoning about its own code.
//
// Substitution note (engine): where AutoBench shells out to Icarus
// Verilog per run, this framework simulates on internal/sim. Every run
// is a "one checker, N DUTs" run (batch.go) through one recorder on
// the batch engine: the checker is recorded once as a one-lane program,
// the DUTs as lanes of compiled batch programs — the validator's RS
// matrix and AutoEval's mutant grading batch whole candidate sets, a
// single DUT is a one-lane batch — and each DUT's recorded outputs are
// compared with the checker's. Every lane is bit-for-bit identical to
// the reference AST interpreter (sim.Instance), which the differential
// tests run as the oracle.
package testbench

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"

	"correctbench/internal/dataset"
	"correctbench/internal/mutate"
	"correctbench/internal/sim"
	"correctbench/internal/verilog"
)

// Step is one stimulus application: drive the data inputs, settle (and
// clock once for sequential DUTs), then sample all outputs.
type Step struct {
	Inputs map[string]uint64

	// names is the sorted key list of Inputs, precomputed once by
	// GenerateScenarios so the per-step hot path never re-sorts. It is
	// never written after generation, keeping concurrent runs of the
	// same testbench read-only.
	names []string
}

// SortedNames returns the step's port names in sorted order, the
// deterministic drive order of driveStep. Hand-built steps (nil cache)
// get a freshly sorted list; the method never mutates the step, so a
// shared testbench stays safe for concurrent runs.
func (st Step) SortedNames() []string {
	if st.names != nil {
		return st.names
	}
	names := make([]string, 0, len(st.Inputs))
	for name := range st.Inputs {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// freezeNames precomputes the sorted port list.
func (st *Step) freezeNames() {
	if st.names == nil {
		st.names = st.SortedNames()
	}
}

// Scenario is a named group of steps, the unit of the paper's RS-matrix
// columns. Each scenario starts from a freshly reset DUT/checker pair.
type Scenario struct {
	Index int // 1-based, as reported in bug info
	Name  string
	Steps []Step
}

// Testbench is the hybrid testbench.
type Testbench struct {
	Problem   *dataset.Problem
	Scenarios []Scenario

	// DriverSource is an explicit Verilog driver text (Eval0's driver
	// track): a corrupted, edited or caller-supplied one. Empty means
	// the driver EmitDriver renders from Scenarios, which always
	// parses, so a testbench without an explicit driver passes Eval0's
	// driver track and its text is rendered only when read (Driver).
	// An explicit text is judged by parsing it, unless EmitDriver
	// rendered it on this testbench.
	DriverSource string

	// CheckerSource is the checker module text (Eval0's checker track
	// and the simulation source for reference outputs).
	CheckerSource string
	// CheckerTop is the checker module name.
	CheckerTop string

	// CheckerPlan records the faults injected into the checker
	// (empty plan = clean checker). Framework-private.
	CheckerPlan mutate.Plan
	// CheckerSticky is the plan site index of the task's systematic
	// ("misunderstood specification") fault, or -1 when absent.
	CheckerSticky int

	// Tokens spent generating this testbench (filled by generators).
	TokensIn, TokensOut int

	// driverSyntax is the explicit driver's memoized Eval0 verdict (see
	// SyntaxOK), with the text it judged, so an in-place edit of
	// DriverSource re-parses. EmitDriver stores the verdict on the text
	// it emits.
	driverSyntax atomic.Pointer[syntaxVerdict]
	// checker is the store's memo of the current checker text: its one
	// parse and its design (see checkerMemo). It is looked up again when
	// CheckerSource or CheckerTop differs from the text it holds.
	checker atomic.Pointer[checkerMemo]
	// store is the trace store every run of tb reads and records into
	// (see TraceStore): the one UseTraceStore gave it, or one of its own
	// made on first use. WithChecker copies share it.
	//
	// Both pointers are atomic, so every method of a Testbench is safe
	// on a testbench shared across goroutines; they make a Testbench
	// non-copyable (use WithChecker or a field-wise construction).
	store atomic.Pointer[TraceStore]
}

// UseTraceStore makes s the trace store of tb's runs, so they reuse
// what other testbenches on s recorded. Call it before tb's first run:
// a generator hands its store to every testbench it emits.
func (tb *Testbench) UseTraceStore(s *TraceStore) {
	tb.store.Store(s)
}

// storePerRun, set only by tests, makes every run use a fresh trace
// store instead of its testbench's, so a test can pin that no result
// depends on what a store holds.
var storePerRun bool

// traceStore returns tb's trace store, making one on first use.
func (tb *Testbench) traceStore() *TraceStore {
	if storePerRun {
		return &TraceStore{}
	}
	if s := tb.store.Load(); s != nil {
		return s
	}
	tb.store.CompareAndSwap(nil, &TraceStore{})
	return tb.store.Load()
}

// Driver returns the driver text: DriverSource when it is set, else
// the text EmitDriver renders from the scenarios. The rendered text is
// not kept, so each call on a testbench without an explicit driver
// renders it again.
func (tb *Testbench) Driver() string {
	if tb.DriverSource != "" {
		return tb.DriverSource
	}
	return EmitDriver(tb)
}

// ScenarioCount returns the number of scenarios.
func (tb *Testbench) ScenarioCount() int { return len(tb.Scenarios) }

// RunResult reports a DUT simulation against the testbench.
type RunResult struct {
	// ScenarioPass[i] is true when scenario i+1 produced outputs equal
	// to the checker's on every step.
	ScenarioPass []bool
}

// Pass reports whether every scenario passed.
func (r *RunResult) Pass() bool {
	for _, ok := range r.ScenarioPass {
		if !ok {
			return false
		}
	}
	return true
}

// FailedScenarios returns the 1-based indexes of failing scenarios.
func (r *RunResult) FailedScenarios() []int {
	var out []int
	for i, ok := range r.ScenarioPass {
		if !ok {
			out = append(out, i+1)
		}
	}
	return out
}

// SyntaxOK reports whether both testbench tracks parse, the Eval0
// criterion for the testbench artifact itself. A testbench without an
// explicit driver passes the driver track with nothing emitted or
// parsed when its problem elaborates (a cached verdict): the driver
// EmitDriver renders for such a problem always parses. An explicit
// driver's verdict is memoized with the text it judged: it is parsed
// again only when its source differs from the last one checked, and a
// text EmitDriver rendered on tb is already judged, so of a
// generation's driver only a corrupted text is ever parsed, and only
// once. The checker's verdict is the parse tb's trace store holds for
// its text, made once per text and store, which simulation and lint
// then reuse. The driver is checked first; a broken driver leaves the
// checker unparsed.
func (tb *Testbench) SyntaxOK() bool {
	var driverPasses bool
	if tb.DriverSource == "" {
		_, err := tb.Problem.Elaborate()
		driverPasses = err == nil
	} else {
		driverPasses = driverOK(&tb.driverSyntax, tb.DriverSource)
	}
	return driverPasses && tb.loadChecker().parseErr == nil
}

// syntaxVerdict is the driver's memoized Eval0 verdict on src.
type syntaxVerdict struct {
	src string
	ok  bool
}

// driverOK returns the Eval0 verdict on src, parsing it only when the
// memo holds a different text. Concurrent callers may both parse a new
// text; they store equal verdicts.
func driverOK(memo *atomic.Pointer[syntaxVerdict], src string) bool {
	if v := memo.Load(); v != nil && v.src == src {
		return v.ok
	}
	_, err := verilog.Parse(src)
	ok := err == nil
	memo.Store(&syntaxVerdict{src: src, ok: ok})
	return ok
}

// checkerMemo holds what is derived from one checker text: its parse
// (or parse error) and the design elaborated from that parse. It lives
// in a TraceStore, shared by every testbench on the store whose checker
// is that text. The parse is made once, on first lookup; the design is
// built on first use, under mu, by the first caller that needs it, so
// its phase spans land on that caller's context. A design shares leaf
// nodes with the parse, and the lint reads the parse, so neither may be
// written.
type checkerMemo struct {
	src, top string
	parsed   sync.Once
	file     *verilog.SourceFile
	parseErr error

	mu     sync.Mutex // guards design while it is built
	design *sim.Design
}

// loadChecker returns the memo for tb's current checker text, looking
// it up in tb's store when tb last used another text.
func (tb *Testbench) loadChecker() *checkerMemo {
	src, top := tb.CheckerSource, tb.CheckerTop
	if m := tb.checker.Load(); m != nil && m.src == src && m.top == top {
		return m
	}
	m := tb.traceStore().checker(src, top)
	tb.checker.Store(m)
	return m
}

// CheckerFile returns the parse of the checker text that Eval0 judged
// and simulation elaborates, or the parse error. The file is shared
// with the store's memo: callers must only read it.
func (tb *Testbench) CheckerFile() (*verilog.SourceFile, error) {
	m := tb.loadChecker()
	return m.file, m.parseErr
}

// WithChecker returns a new testbench with tb's stimulus and driver
// and the given checker track: the corrector's rewrite. An empty
// DriverSource stays empty in the copy. The driver's Eval0 verdict
// carries over, since DriverSource is unchanged, and the
// copy shares tb's trace store: a checker text the store has seen is
// not parsed, elaborated or recorded again, and the DUT side of every
// scenario already recorded is replayed.
func (tb *Testbench) WithChecker(src string, plan mutate.Plan, sticky int) *Testbench {
	out := &Testbench{
		Problem:       tb.Problem,
		Scenarios:     tb.Scenarios,
		DriverSource:  tb.DriverSource,
		CheckerSource: src,
		CheckerTop:    tb.CheckerTop,
		CheckerPlan:   plan,
		CheckerSticky: sticky,
		TokensIn:      tb.TokensIn,
		TokensOut:     tb.TokensOut,
	}
	out.driverSyntax.Store(tb.driverSyntax.Load())
	out.store.Store(tb.traceStore())
	return out
}

// checkerDesignContext returns the design elaborated from the checker
// memo's parse. The first caller elaborates it and records the
// sim_elaborate/sim_compile spans on its context's obs collector;
// later callers record nothing. A parse error is returned as it is; an
// elaboration error is not kept, so a later call elaborates again.
func (tb *Testbench) checkerDesignContext(ctx context.Context) (*sim.Design, error) {
	m := tb.loadChecker()
	if m.parseErr != nil {
		return nil, m.parseErr
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.design == nil {
		d, err := sim.ElaborateContext(ctx, m.file, m.top)
		if err != nil {
			return nil, err
		}
		m.design = d
	}
	return m.design, nil
}

// RunAgainstSourceContext simulates the DUT given as Verilog source
// against the testbench. A DUT-side parse/elaboration/simulation
// failure is returned as an error (the caller decides whether that
// means "discard this RTL" — validator rows — or "testbench failed").
// Once ctx is cancelled the simulation stops within one step batch and
// the context's error is returned (wrapped; test with errors.Is).
func (tb *Testbench) RunAgainstSourceContext(ctx context.Context, dutSrc, dutTop string) (*RunResult, error) {
	dutDesign, err := sim.ElaborateSourceContext(ctx, dutSrc, dutTop)
	if err != nil {
		return nil, fmt.Errorf("dut: %w", err)
	}
	return tb.RunAgainstDesignContext(ctx, dutDesign)
}

// RunAgainstDesignContext is RunAgainstSourceContext for a
// pre-elaborated DUT: a one-DUT batched run against the recorded
// checker trace (RunBatchContext), on the DUT set tb's store keeps for
// the design. A cancellation takes effect within one simulation step
// batch.
func (tb *Testbench) RunAgainstDesignContext(ctx context.Context, dutDesign *sim.Design) (*RunResult, error) {
	out, err := tb.RunBatchContext(ctx, tb.traceStore().single(dutDesign), false)
	if err != nil {
		return nil, err
	}
	return out[0].Res, out[0].Err
}

func outputPorts(d *sim.Design) []string {
	var out []string
	for _, p := range d.Ports {
		if p.Dir == sim.Out {
			out = append(out, p.Name)
		}
	}
	return out
}

// ---- golden testbench ----

// Golden builds the reference testbench for a problem: thorough
// stimuli (exhaustive for small combinational input spaces) and the
// unmutated golden checker. AutoEval compares candidate verdicts
// against this testbench's verdicts.
func Golden(p *dataset.Problem, rng *rand.Rand) (*Testbench, error) {
	scenarios, err := GenerateScenarios(p, rng, Coverage{
		Scenarios:  12,
		Steps:      16,
		Corners:    true,
		Exhaustive: true,
	})
	if err != nil {
		return nil, err
	}
	return &Testbench{
		Problem:       p,
		Scenarios:     scenarios,
		CheckerSource: p.Source,
		CheckerTop:    p.Top,
		CheckerSticky: -1,
	}, nil
}
