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
// The proof obligations live in internal/vstatic (AnalyzeProc, Region,
// Levelize and Folds), shared with the module-level lint so the two
// fronts cannot drift: the compiler folds only the bodies vstatic.Folds
// accepts, and a program with any other body runs event-driven;
// designRegion adapts a design's comb processes into a vstatic.Region,
// a lane is static when Region.Static holds, and vstatic.Levelize —
// the levelizer Region.Levelizable runs too — builds the schedule over
// the union edge set of the whole batch (base plus every accepted
// variant), so one order is valid for all lanes. Any failure simply
// drops the batch to its per-lane event-driven mode, which replicates
// the scalar scheduler exactly — levelization is an optimization,
// never a semantic requirement.

import (
	"fmt"

	"correctbench/internal/verilog"
	"correctbench/internal/vstatic"
)

// designRegion runs the shared purity analysis over every
// combinational process of d, each sensitive to its elaborated list.
func designRegion(d *Design) vstatic.Region {
	env := verilog.ConstEnv{Width: d.signalWidth}
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
		region.Facts[ord] = vstatic.AnalyzeProc(p.Body, sensFn, env)
		region.Sens[ord] = sensFn
	}
	return region
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
