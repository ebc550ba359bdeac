// Command traceview renders a job's cell-trace stream — the NDJSON
// produced by GET /v1/experiments/{id}/trace (one CellTrace per line)
// — as a per-job phase summary, a critical-path breakdown, and text
// flamegraphs of the slowest cells.
//
// Usage:
//
//	traceview [flags] [trace.ndjson]
//
// With no file argument (or "-") the trace is read from stdin, so it
// composes with curl:
//
//	curl -s localhost:8080/v1/experiments/exp-1/trace | traceview
//
// Flags:
//
//	-top N      flamegraphs for the N slowest cells (default 3)
//	-width N    flamegraph bar width in columns (default 64)
//	-selfcheck  render a synthetic trace and verify the output
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"correctbench/internal/obs"
)

func main() {
	top := flag.Int("top", 3, "flamegraphs for the N slowest cells")
	width := flag.Int("width", 64, "flamegraph bar width in columns")
	selfcheck := flag.Bool("selfcheck", false, "render a synthetic trace and verify the output")
	flag.Parse()

	if *selfcheck {
		if err := runSelfcheck(*top, *width); err != nil {
			fmt.Fprintln(os.Stderr, "traceview selfcheck failed:", err)
			os.Exit(1)
		}
		fmt.Println("traceview selfcheck ok")
		return
	}

	in := os.Stdin
	if name := flag.Arg(0); name != "" && name != "-" {
		f, err := os.Open(name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "traceview:", err)
			os.Exit(1)
		}
		defer f.Close()
		in = f
	}
	cells, err := readTrace(in)
	if err != nil {
		fmt.Fprintln(os.Stderr, "traceview:", err)
		os.Exit(1)
	}
	render(os.Stdout, cells, *top, *width)
}

// readTrace parses one CellTrace per NDJSON line.
func readTrace(r io.Reader) ([]obs.CellTrace, error) {
	var cells []obs.CellTrace
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var ct obs.CellTrace
		if err := json.Unmarshal(line, &ct); err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		cells = append(cells, ct)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return cells, nil
}

// cellWall returns a cell's traced wall time: the extent of its span
// window in microseconds.
func cellWall(ct obs.CellTrace) int64 {
	if len(ct.Spans) == 0 {
		return 0
	}
	lo, hi := ct.Spans[0].StartUS, int64(0)
	for _, sp := range ct.Spans {
		if sp.StartUS < lo {
			lo = sp.StartUS
		}
		if end := sp.StartUS + sp.DurUS; end > hi {
			hi = end
		}
	}
	return hi - lo
}

func fmtUS(us int64) string {
	switch {
	case us >= 1_000_000:
		return fmt.Sprintf("%.2fs", float64(us)/1e6)
	case us >= 1_000:
		return fmt.Sprintf("%.2fms", float64(us)/1e3)
	default:
		return fmt.Sprintf("%dµs", us)
	}
}

// render writes the full report: phase summary, per-job critical
// path, and flamegraphs of the top slowest cells.
func render(w io.Writer, cells []obs.CellTrace, top, width int) {
	if len(cells) == 0 {
		fmt.Fprintln(w, "no cells in trace")
		return
	}

	// Phase summary over every span of every cell.
	type agg struct {
		count    int
		sum, max int64
	}
	phases := map[string]*agg{}
	cached := 0
	var jobWall int64
	for _, ct := range cells {
		if ct.Cached {
			cached++
		}
		jobWall += cellWall(ct)
		for _, sp := range ct.Spans {
			a := phases[sp.Phase]
			if a == nil {
				a = &agg{}
				phases[sp.Phase] = a
			}
			a.count++
			a.sum += sp.DurUS
			if sp.DurUS > a.max {
				a.max = sp.DurUS
			}
		}
	}
	names := make([]string, 0, len(phases))
	for name := range phases {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return phases[names[i]].sum > phases[names[j]].sum })

	fmt.Fprintf(w, "trace: %d cells (%d cached), traced wall time %s\n\n", len(cells), cached, fmtUS(jobWall))
	fmt.Fprintf(w, "%-16s %8s %12s %12s %12s\n", "phase", "count", "total", "mean", "max")
	for _, name := range names {
		a := phases[name]
		fmt.Fprintf(w, "%-16s %8d %12s %12s %12s\n",
			name, a.count, fmtUS(a.sum), fmtUS(a.sum/int64(a.count)), fmtUS(a.max))
	}

	// Critical path of the slowest cell: at each level the span's self
	// time and its children summed per phase, descending into the
	// heaviest phase group.
	sorted := append([]obs.CellTrace(nil), cells...)
	sort.Slice(sorted, func(i, j int) bool {
		wi, wj := cellWall(sorted[i]), cellWall(sorted[j])
		if wi != wj {
			return wi > wj
		}
		return sorted[i].Index < sorted[j].Index
	})
	slowest := sorted[0]
	fmt.Fprintf(w, "\ncritical path (slowest cell: #%d %s/%s rep %d, %s):\n",
		slowest.Index, slowest.Method, slowest.Problem, slowest.Rep, fmtUS(cellWall(slowest)))
	wall := cellWall(slowest)
	pct := func(us int64) float64 {
		if wall <= 0 {
			return 0
		}
		return 100 * float64(us) / float64(wall)
	}
	for depth, st := range criticalPath(slowest) {
		indent := strings.Repeat("  ", depth)
		fmt.Fprintf(w, "  %s%-16s %12s  %5.1f%%  self %s\n",
			indent, st.span.Phase, fmtUS(st.span.DurUS), pct(st.span.DurUS), fmtUS(st.self))
		for _, g := range st.groups {
			fmt.Fprintf(w, "  %s  · %-14s %12s  %5.1f%%  ×%d\n",
				indent, g.phase, fmtUS(g.sum), pct(g.sum), g.count)
		}
	}

	// Flamegraphs of the top slowest cells.
	if top > len(sorted) {
		top = len(sorted)
	}
	for i := 0; i < top; i++ {
		fmt.Fprintln(w)
		flamegraph(w, sorted[i], width)
	}
}

// pathStep is one level of a critical path: a span, its self time
// (duration not covered by its children) and its children summed per
// phase, heaviest group first.
type pathStep struct {
	span   obs.Span
	self   int64
	groups []phaseGroup
}

// phaseGroup sums the sibling spans of one phase.
type phaseGroup struct {
	phase    string
	count    int
	sum      int64
	heaviest obs.Span // the group's longest span, where the path descends
}

// groupByPhase sums spans per phase, heaviest sum first (ties by
// phase name, so the report is deterministic).
func groupByPhase(spans []obs.Span) []phaseGroup {
	byPhase := map[string]*phaseGroup{}
	var groups []*phaseGroup
	for _, sp := range spans {
		g := byPhase[sp.Phase]
		if g == nil {
			g = &phaseGroup{phase: sp.Phase, heaviest: sp}
			byPhase[sp.Phase] = g
			groups = append(groups, g)
		}
		g.count++
		g.sum += sp.DurUS
		if sp.DurUS > g.heaviest.DurUS {
			g.heaviest = sp
		}
	}
	sort.Slice(groups, func(i, j int) bool {
		if groups[i].sum != groups[j].sum {
			return groups[i].sum > groups[j].sum
		}
		return groups[i].phase < groups[j].phase
	})
	out := make([]phaseGroup, len(groups))
	for i, g := range groups {
		out[i] = *g
	}
	return out
}

// criticalPath walks the span tree from the heaviest root phase group
// down the heaviest child phase group at each level. Grouping by phase
// before choosing keeps many short spans (hundreds of sim_run calls
// under one round) from losing to a single longer sibling.
func criticalPath(ct obs.CellTrace) []pathStep {
	children := map[string][]obs.Span{}
	var roots []obs.Span
	for _, sp := range ct.Spans {
		if sp.Parent == "" {
			roots = append(roots, sp)
		} else {
			children[sp.Parent] = append(children[sp.Parent], sp)
		}
	}
	var path []pathStep
	level := groupByPhase(roots)
	for len(level) > 0 && len(path) <= len(ct.Spans) {
		sp := level[0].heaviest
		st := pathStep{span: sp, self: sp.DurUS, groups: groupByPhase(children[sp.ID])}
		for _, g := range st.groups {
			st.self -= g.sum
		}
		if st.self < 0 {
			st.self = 0 // children overlap (concurrent work)
		}
		path = append(path, st)
		level = st.groups
	}
	return path
}

// flamegraph renders one cell's span tree as a timeline: each span a
// bar positioned and sized by its start offset and duration within
// the cell's window, indented by tree depth, in start order.
func flamegraph(w io.Writer, ct obs.CellTrace, width int) {
	if width < 8 {
		width = 8
	}
	cachedMark := ""
	if ct.Cached {
		cachedMark = " (cached)"
	}
	fmt.Fprintf(w, "cell #%d %s/%s rep %d  %s%s\n",
		ct.Index, ct.Method, ct.Problem, ct.Rep, fmtUS(cellWall(ct)), cachedMark)
	if len(ct.Spans) == 0 {
		return
	}
	lo := ct.Spans[0].StartUS
	for _, sp := range ct.Spans {
		if sp.StartUS < lo {
			lo = sp.StartUS
		}
	}
	window := cellWall(ct)
	if window < 1 {
		window = 1
	}
	depth := map[string]int{}
	parentOf := map[string]string{}
	for _, sp := range ct.Spans {
		parentOf[sp.ID] = sp.Parent
	}
	depthOf := func(id string) int {
		if d, ok := depth[id]; ok {
			return d
		}
		d := 0
		for p := parentOf[id]; p != ""; p = parentOf[p] {
			d++
			if d > len(ct.Spans) { // cycle guard; never happens in well-formed traces
				break
			}
		}
		depth[id] = d
		return d
	}
	for _, sp := range ct.Spans {
		off := int(float64(sp.StartUS-lo) / float64(window) * float64(width))
		length := int(float64(sp.DurUS) / float64(window) * float64(width))
		if length < 1 {
			length = 1
		}
		if off >= width {
			off = width - 1
		}
		if off+length > width {
			length = width - off
		}
		bar := strings.Repeat(" ", off) + strings.Repeat("█", length) + strings.Repeat(" ", width-off-length)
		fmt.Fprintf(w, "  |%s| %s%-16s %s\n", bar, strings.Repeat("  ", depthOf(sp.ID)), sp.Phase, fmtUS(sp.DurUS))
	}
}

// runSelfcheck renders a synthetic two-cell trace through the full
// parse+render path and verifies the report mentions every phase —
// the CI smoke test for the tool itself.
func runSelfcheck(top, width int) error {
	mk := func(index int, problem string, base int64) obs.CellTrace {
		traceID := fmt.Sprintf("selfcheck-%d", index)
		samples := []obs.PhaseSample{
			{Phase: obs.PhaseQueueWait, Seq: 0, ParentSeq: -1, StartUS: 0, DurUS: 50},
			{Phase: obs.PhaseLookup, Seq: 1, ParentSeq: -1, StartUS: 50, DurUS: 10},
			{Phase: obs.PhaseSimulate, Seq: 2, ParentSeq: -1, StartUS: 60, DurUS: base},
			{Phase: obs.PhaseElaborate, Seq: 3, ParentSeq: 2, StartUS: 70, DurUS: base / 10},
			{Phase: obs.PhaseRun, Seq: 4, ParentSeq: 2, StartUS: 70 + base/10, DurUS: base / 2},
			{Phase: obs.PhaseGrade, Seq: 5, ParentSeq: -1, StartUS: 60 + base, DurUS: base / 3},
			{Phase: obs.PhaseWriteback, Seq: 6, ParentSeq: -1, StartUS: 60 + base + base/3, DurUS: 20},
		}
		return obs.CellTrace{
			Index: index, Method: "CorrectBench", Rep: 0, Problem: problem,
			Key: traceID, Spans: obs.BuildSpans(traceID, samples),
		}
	}
	var ndjson bytes.Buffer
	enc := json.NewEncoder(&ndjson)
	for i, ct := range []obs.CellTrace{mk(0, "halfadd", 9000), mk(1, "cnt4", 3000)} {
		if err := enc.Encode(ct); err != nil {
			return fmt.Errorf("encode cell %d: %w", i, err)
		}
	}
	cells, err := readTrace(&ndjson)
	if err != nil {
		return err
	}
	if len(cells) != 2 {
		return fmt.Errorf("parsed %d cells, want 2", len(cells))
	}
	var out bytes.Buffer
	render(&out, cells, top, width)
	report := out.String()
	for _, want := range []string{
		obs.PhaseQueueWait, obs.PhaseLookup, obs.PhaseSimulate,
		obs.PhaseElaborate, obs.PhaseRun, obs.PhaseGrade, obs.PhaseWriteback,
		"critical path", "2 cells", "█",
	} {
		if !strings.Contains(report, want) {
			return fmt.Errorf("report is missing %q:\n%s", want, report)
		}
	}
	return nil
}
