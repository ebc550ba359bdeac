package sim

// Levelized static scheduling for the batch engine.
//
// The event-driven scheduler (settleComb) re-runs combinational
// processes until a fixpoint because a process may observe stale
// values of signals produced by processes that happen to run after it.
// When the combinational region is provably static — every process is
// a pure function of its sensitivity list, every signal has a single
// combinational writer and the writer→reader graph is acyclic — a
// single topologically ordered pass computes the identical fixpoint,
// with each process running at most once per settle.
//
// The proof obligations live in internal/vstatic (AnalyzeProc, Region
// and Folds), shared with the module-level lint so the two fronts
// cannot drift: the compiler folds only the bodies vstatic.Folds
// accepts, and a program with any other body runs event-driven;
// analyzeStatic adapts a design's comb processes into a
// vstatic.Region and converts its findings into errNotStatic errors;
// levelize builds the schedule over the union edge set of the whole
// batch (base plus every accepted variant), so one order is valid for
// all lanes. Any failure simply drops the batch to its per-lane
// event-driven mode, which replicates the scalar scheduler exactly —
// levelization is an optimization, never a semantic requirement.

import (
	"errors"
	"fmt"

	"correctbench/internal/verilog"
	"correctbench/internal/vstatic"
)

// combStatic is the per-design result of a successful static
// analysis: the writer→reader dependency edges (by comb process
// ordinal) of the design's combinational region.
type combStatic struct {
	edges [][2]int
}

var errNotStatic = errors.New("not static")

// designRegion runs the shared purity analysis over every
// combinational process of d, with write/NBA facts filtered to
// declared slots (names that resolve to nothing cannot conflict,
// mirroring the engine's slot lookups).
func designRegion(d *Design) vstatic.Region {
	env := verilog.ConstEnv{Width: func(name string) (int, bool) {
		slot, ok := d.slotOf[name]
		if !ok {
			return 0, false
		}
		return d.slotWidths[slot], true
	}}
	region := vstatic.Region{
		Facts: make([]vstatic.ProcFacts, len(d.combProcs)),
		Sens:  make([]func(string) bool, len(d.combProcs)),
	}
	for ord, p := range d.combProcs {
		sens := map[string]bool{}
		for _, se := range p.Sens {
			sens[se.Sig] = true
		}
		sensFn := func(name string) bool { return sens[name] }
		facts := vstatic.AnalyzeProc(p.Body, sensFn, env)
		for name := range facts.Writes { //detlint:allow only deletes entries; the order reaches nothing
			if _, ok := d.slotOf[name]; !ok {
				delete(facts.Writes, name)
			}
		}
		known := facts.NBA[:0]
		for _, name := range facts.NBA {
			if _, ok := d.slotOf[name]; ok {
				known = append(known, name)
			}
		}
		facts.NBA = known
		region.Facts[ord] = facts
		region.Sens[ord] = sensFn
	}
	return region
}

// analyzeStatic proves the design's combinational region static.
// A process passes when it is a pure function of its sensitivity
// list: every read of a signal bit the process blocking-writes is
// preceded by a definite assignment of that bit (no state carried
// across runs), nonblocking targets are whole identifiers, and every
// input bit it reads appears in its sensitivity list. Globally, every
// slot bit has at most one combinational blocking writer and every
// slot one combinational NBA writer.
func analyzeStatic(d *Design) (*combStatic, error) {
	region := designRegion(d)
	for ord, f := range region.Facts {
		if f.Err != nil {
			return nil, fmt.Errorf("%s: %w: %v", d.combProcs[ord].Name, errNotStatic, f.Err)
		}
	}
	if cs := region.Conflicts(); len(cs) != 0 {
		c := cs[0]
		name := d.combProcs[c.B].Name
		if c.NBA {
			return nil, fmt.Errorf("%s: %w: signal %q has multiple combinational nonblocking writers", name, errNotStatic, c.Signal)
		}
		return nil, fmt.Errorf("%s: %w: signal %q has multiple combinational writers", name, errNotStatic, c.Signal)
	}
	return &combStatic{edges: region.Edges()}, nil
}

// sensSlots resolves a process's sensitivity list to design slots,
// skipping names that resolve to nothing (mirroring combBySlot).
func sensSlots(d *Design, p *Process) []int32 {
	out := make([]int32, 0, len(p.Sens))
	for _, se := range p.Sens {
		if slot, ok := d.slotOf[se.Sig]; ok {
			out = append(out, int32(slot))
		}
	}
	return out
}

// levelize builds one topological schedule over the union dependency
// graph of every design in the batch: an edge W→R whenever W
// blocking-writes bits R reads sensitively in any design.
// Nonblocking writes do not create edges (they land in the NBA region
// after settling, like sequential outputs). Returns the comb ordinals
// sorted by (level, ordinal) and whether the union graph is acyclic.
func levelize(nProcs int, statics []*combStatic) ([]int32, bool) {
	adj := make([][]int32, nProcs)
	indeg := make([]int, nProcs)
	seen := make(map[int64]bool)
	for _, st := range statics {
		for _, e := range st.edges {
			w, k := e[0], e[1]
			if w < 0 || k < 0 || w >= nProcs || k >= nProcs {
				continue
			}
			key := int64(w)<<32 | int64(k)
			if seen[key] {
				continue
			}
			seen[key] = true
			adj[w] = append(adj[w], int32(k))
			indeg[k]++
		}
	}

	level := make([]int, nProcs)
	queue := make([]int32, 0, nProcs)
	for k := 0; k < nProcs; k++ {
		if indeg[k] == 0 {
			queue = append(queue, int32(k))
		}
	}
	done := 0
	for len(queue) > 0 {
		u := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		done++
		for _, v := range adj[u] {
			if level[u]+1 > level[v] {
				level[v] = level[u] + 1
			}
			indeg[v]--
			if indeg[v] == 0 {
				queue = append(queue, v)
			}
		}
	}
	if done < nProcs {
		return nil, false
	}

	order := make([]int32, nProcs)
	for i := range order {
		order[i] = int32(i)
	}
	// Insertion sort by (level, ordinal); nProcs is small.
	for i := 1; i < nProcs; i++ {
		for j := i; j > 0; j-- {
			a, b := order[j-1], order[j]
			if level[a] < level[b] || (level[a] == level[b] && a < b) {
				break
			}
			order[j-1], order[j] = b, a
		}
	}
	return order, true
}

// batchCompatible reports whether a variant can share the base
// design's batch program: identical slot layout, port interface and
// process skeleton (kinds and edge sensitivities), so only process
// bodies may differ.
func batchCompatible(base, v *Design) error {
	if len(v.Order) != len(base.Order) {
		return fmt.Errorf("sim: batch: variant has %d signals, base has %d", len(v.Order), len(base.Order))
	}
	for i, name := range base.Order {
		if v.Order[i] != name {
			return fmt.Errorf("sim: batch: signal layout differs at slot %d (%q vs %q)", i, v.Order[i], name)
		}
		if v.slotWidths[i] != base.slotWidths[i] {
			return fmt.Errorf("sim: batch: width of %q differs (%d vs %d)", name, v.slotWidths[i], base.slotWidths[i])
		}
	}
	if len(v.Ports) != len(base.Ports) {
		return fmt.Errorf("sim: batch: port count differs")
	}
	for i, p := range base.Ports {
		vp := v.Ports[i]
		if vp.Name != p.Name || vp.Dir != p.Dir || vp.Width != p.Width {
			return fmt.Errorf("sim: batch: port %q differs", p.Name)
		}
	}
	if len(v.Procs) != len(base.Procs) {
		return fmt.Errorf("sim: batch: process count differs")
	}
	for i, p := range base.Procs {
		if v.Procs[i].Kind != p.Kind {
			return fmt.Errorf("sim: batch: process %d kind differs", i)
		}
	}
	if len(v.seqProcs) != len(base.seqProcs) {
		return fmt.Errorf("sim: batch: sequential process count differs")
	}
	for i, p := range base.seqProcs {
		vp := v.seqProcs[i]
		if len(vp.Sens) != len(p.Sens) {
			return fmt.Errorf("sim: batch: edge sensitivity of %s differs", p.Name)
		}
		for j, se := range p.Sens {
			if vp.Sens[j].Sig != se.Sig || vp.Sens[j].Edge != se.Edge {
				return fmt.Errorf("sim: batch: edge sensitivity of %s differs", p.Name)
			}
		}
	}
	if len(v.edgeSlots) != len(base.edgeSlots) {
		return fmt.Errorf("sim: batch: edge-watched signal set differs")
	}
	for i, s := range base.edgeSlots {
		if v.edgeSlots[i] != s {
			return fmt.Errorf("sim: batch: edge-watched signal set differs")
		}
	}
	return nil
}
