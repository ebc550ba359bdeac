// Package dataset provides the 156-problem benchmark suite used by the
// CorrectBench reproduction: 81 combinational (CMB) and 75 sequential
// (SEQ) Verilog design problems, mirroring the AutoBench/CorrectBench
// dataset extended from VerilogEval-Human/HDLBits. Each problem carries
// a natural-language specification (the only input the generation
// framework is allowed to see), a golden RTL implementation, and
// metadata used for stimulus generation.
package dataset

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"sync"

	"correctbench/internal/sim"
	"correctbench/internal/verilog"
)

// Kind classifies problems by circuit type.
type Kind int

// Problem kinds.
const (
	CMB Kind = iota // combinational
	SEQ             // sequential
)

func (k Kind) String() string {
	if k == CMB {
		return "CMB"
	}
	return "SEQ"
}

// Problem is one benchmark task.
type Problem struct {
	Name string
	Kind Kind
	// Spec is the natural-language design specification handed to the
	// testbench generator.
	Spec string
	// Source is the golden RTL (never shown to the generator).
	Source string
	// Top is the module name.
	Top string
	// Clock and Reset name the clock/synchronous-reset inputs for SEQ
	// problems (empty for CMB). Reset may be empty for reset-less
	// designs that are flushed by loading instead.
	Clock, Reset string
	// Difficulty in 1..5 scales the simulated LLM's fault rates; SEQ
	// problems are systematically harder, as in the paper.
	Difficulty int

	// The golden module/design caches are built at most once each,
	// under their own once-guards: concurrent first callers block only
	// on the problem being built (not on a shared lock), and every
	// later call is a contention-free read. Source and Top must not be
	// mutated after the first Module/Elaborate call.
	moduleOnce   sync.Once
	cachedModule *verilog.Module
	moduleErr    error
	designOnce   sync.Once
	cachedDesign *sim.Design
	designErr    error
	fpOnce       sync.Once
	fingerprint  string
}

// Fingerprint returns a stable content hash over everything that
// defines the problem: name, kind, spec, golden source, top module,
// clock/reset names and difficulty. It is one component of the
// evaluation-cell store key (harness.CellKey), so editing any of
// these fields — a spec reword, a golden RTL fix — changes the
// fingerprint and silently invalidates every cached cell of the
// problem. Like the module/design caches, it requires the problem to
// be immutable after first use.
func (p *Problem) Fingerprint() string {
	p.fpOnce.Do(func() {
		h := sha256.New()
		// Length-prefixed fields so no two field layouts collide.
		for _, f := range []string{
			p.Name, p.Kind.String(), p.Spec, p.Source, p.Top, p.Clock, p.Reset,
		} {
			fmt.Fprintf(h, "%d:%s|", len(f), f)
		}
		fmt.Fprintf(h, "d=%d", p.Difficulty)
		p.fingerprint = hex.EncodeToString(h.Sum(nil)[:16])
	})
	return p.fingerprint
}

// Module parses the golden source and returns its top module. The
// result is cached and shared: callers must treat it as read-only
// (mutate copies each node before a mutation can write to it).
func (p *Problem) Module() (*verilog.Module, error) {
	p.moduleOnce.Do(func() {
		f, err := verilog.Parse(p.Source)
		if err != nil {
			p.moduleErr = fmt.Errorf("dataset %s: %v", p.Name, err)
			return
		}
		m := f.Module(p.Top)
		if m == nil {
			p.moduleErr = fmt.Errorf("dataset %s: top module %q missing", p.Name, p.Top)
			return
		}
		p.cachedModule = m
	})
	return p.cachedModule, p.moduleErr
}

// Elaborate parses and elaborates the golden source. The design is
// cached and shared; sim.Design is read-only during simulation.
func (p *Problem) Elaborate() (*sim.Design, error) {
	p.designOnce.Do(func() {
		p.cachedDesign, p.designErr = sim.ElaborateSourceContext(context.Background(), p.Source, p.Top)
	})
	return p.cachedDesign, p.designErr
}

// DataInputs lists input ports excluding clock and reset, in
// declaration order; these are the ports stimulus generators drive.
func (p *Problem) DataInputs() ([]sim.Port, error) {
	d, err := p.Elaborate()
	if err != nil {
		return nil, err
	}
	var out []sim.Port
	for _, pt := range d.Ports {
		if pt.Dir != sim.In || pt.Name == p.Clock || pt.Name == p.Reset {
			continue
		}
		out = append(out, pt)
	}
	return out, nil
}

// Outputs lists output ports in declaration order.
func (p *Problem) Outputs() ([]sim.Port, error) {
	d, err := p.Elaborate()
	if err != nil {
		return nil, err
	}
	var out []sim.Port
	for _, pt := range d.Ports {
		if pt.Dir == sim.Out {
			out = append(out, pt)
		}
	}
	return out, nil
}

var (
	buildOnce sync.Once
	problems  []*Problem
	byName    map[string]*Problem
)

func build() {
	buildOnce.Do(func() {
		problems = append(problems, combinational()...)
		problems = append(problems, sequential()...)
		byName = make(map[string]*Problem, len(problems))
		for _, p := range problems {
			if byName[p.Name] != nil {
				panic("dataset: duplicate problem name " + p.Name)
			}
			byName[p.Name] = p
		}
	})
}

// All returns every problem, CMB first, in a stable order.
func All() []*Problem {
	build()
	return problems
}

// ByName returns the named problem, or nil.
func ByName(name string) *Problem {
	build()
	return byName[name]
}

// OfKind returns all problems of the given kind.
func OfKind(k Kind) []*Problem {
	var out []*Problem
	for _, p := range All() {
		if p.Kind == k {
			out = append(out, p)
		}
	}
	return out
}

// Names returns all problem names sorted alphabetically.
func Names() []string {
	out := make([]string, 0, len(All()))
	for _, p := range All() {
		out = append(out, p.Name)
	}
	sort.Strings(out)
	return out
}

// problem is the internal constructor; it fills Top from the name.
func problem(name string, kind Kind, difficulty int, spec, source string) *Problem {
	p := &Problem{
		Name:       name,
		Kind:       kind,
		Spec:       spec,
		Source:     source,
		Top:        name,
		Difficulty: difficulty,
	}
	if kind == SEQ {
		p.Clock = "clk"
	}
	return p
}

// seqProblem builds a SEQ problem with a synchronous reset input named
// rst (pass "" for reset-less designs).
func seqProblem(name string, difficulty int, reset, spec, source string) *Problem {
	p := problem(name, SEQ, difficulty, spec, source)
	p.Reset = reset
	return p
}
