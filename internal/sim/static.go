package sim

// StaticFacts summarizes the static classification of an elaborated
// design's combinational region, for benchmarks and diagnostics. It
// is derived from the same internal/vstatic analysis the batched
// scheduler uses, so Levelizable here is exactly the verdict
// CompileBatch acts on for a single-design batch whose every body
// folds (BatchProgram.Interpreted is false).
type StaticFacts struct {
	// CombProcs counts combinational processes; StaticCombProcs the
	// subset proved pure functions of their sensitivity lists.
	CombProcs       int
	StaticCombProcs int
	// Levelizable reports whether the whole region admits the
	// run-once topological schedule.
	Levelizable bool
	// Reason carries the first disqualifying error when Levelizable
	// is false ("" otherwise).
	Reason string
}

// StaticFacts classifies d's combinational region without compiling
// a batch program.
func (d *Design) StaticFacts() StaticFacts {
	f := StaticFacts{CombProcs: len(d.combProcs)}
	region := designRegion(d)
	for _, pf := range region.Facts {
		if pf.Err == nil {
			f.StaticCombProcs++
		}
	}
	st, err := analyzeStatic(d)
	if err != nil {
		f.Reason = err.Error()
		return f
	}
	if _, ok := levelize(len(d.combProcs), []*combStatic{st}); !ok {
		f.Reason = "combinational dependency graph has a cycle"
		return f
	}
	f.Levelizable = true
	return f
}
