package sim

// Design finalization and the compile-time environment the batch
// compiler (batch_compile.go) builds on.
//
// At the end of Elaborate every signal name is resolved to a dense
// integer slot and the scheduling structures (comb process ordinals,
// per-slot sensitivity, edge-watch indices) are precomputed, so both
// engines index state by slot. The batch compiler folds what the
// interpreter recomputes on every execution — IEEE 1364 context widths,
// constant part-select bounds and replication counts — with the
// interpreter's own rules (verilog.SelfWidth, verilog.LHSWidth and
// verilog.Eval) over a verilog.ConstEnv that knows the design's signal
// widths and reads no signal. Where the answer depends on signal values
// those rules report not static, vstatic.Folds rejects the body over
// the same env, and the body runs on those rules at run time
// (batchCompiler.body).

import (
	"correctbench/internal/logic"
	"correctbench/internal/verilog"
)

// edgeSens is a pre-resolved edge-sensitivity entry of a sequential
// process: idx indexes the design's dense edge-watched signal list.
type edgeSens struct {
	idx  int32
	edge verilog.EdgeKind
}

// finalize resolves slots and indexes processes. Called once at the
// end of Elaborate.
func (d *Design) finalize() {
	d.slotOf = make(map[string]int, len(d.Order))
	d.slotWidths = make([]int, len(d.Order))
	d.wideOf = make([]int32, len(d.Order))
	for i, name := range d.Order {
		d.slotOf[name] = i
		d.slotWidths[i] = d.Signals[name].Width
		d.wideOf[i] = -1
		if d.slotWidths[i] > logic.WordBits {
			d.wideOf[i] = int32(d.nWide)
			d.nWide++
		}
	}

	edgeWatched := map[string]bool{}
	for _, p := range d.Procs {
		switch p.Kind {
		case ProcComb:
			d.combProcs = append(d.combProcs, p)
		case ProcSeq:
			d.seqProcs = append(d.seqProcs, p)
			for _, s := range p.Sens {
				edgeWatched[s.Sig] = true
			}
		}
	}

	edgeIdxOf := map[string]int32{}
	for _, name := range d.Order {
		if edgeWatched[name] {
			edgeIdxOf[name] = int32(len(d.edgeSlots))
			d.edgeSlots = append(d.edgeSlots, int32(d.slotOf[name]))
		}
	}

	d.combBySlot = make([][]int32, len(d.Order))
	for ord, p := range d.combProcs {
		for _, s := range p.Sens {
			if slot, ok := d.slotOf[s.Sig]; ok {
				d.combBySlot[slot] = append(d.combBySlot[slot], int32(ord))
			}
		}
	}
	for _, p := range d.seqProcs {
		for _, s := range p.Sens {
			p.edgeSens = append(p.edgeSens, edgeSens{idx: edgeIdxOf[s.Sig], edge: s.Edge})
		}
	}
}

// signalWidth is a signal's declared width; ok is false for unknown
// names.
func (d *Design) signalWidth(name string) (w int, ok bool) {
	s, ok := d.Signals[name]
	if !ok {
		return 0, false
	}
	return s.Width, true
}
