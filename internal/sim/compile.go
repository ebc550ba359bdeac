package sim

// Design finalization and the compile-time static analysis the batch
// compiler (batch_compile.go) builds on.
//
// At the end of Elaborate every signal name is resolved to a dense
// integer slot and the scheduling structures (comb process ordinals,
// per-slot sensitivity, edge-watch indices) are precomputed, so both
// engines index state by slot. The analysis helpers fold what the
// interpreter recomputes on every execution — IEEE 1364 context
// widths, constant part-select bounds and replication counts — and
// report errDynamic where the answer depends on signal values; the
// batch compiler rejects such bodies, and the testbench recorder
// simulates a rejected design on the interpreter.

import (
	"errors"

	"correctbench/internal/logic"
	"correctbench/internal/verilog"
)

// Engine selects the simulator the testbench runner uses.
type Engine int

// Engines.
const (
	// EngineBatched compiles designs into structure-of-arrays batch
	// programs (CompileBatch / BatchInstance) with levelized static
	// scheduling; a single DUT runs as a one-lane batch.
	EngineBatched Engine = iota
	// EngineInterp walks the AST on an Instance, the reference oracle.
	EngineInterp
)

// DefaultEngine is the process-wide reference switch. The testbench
// recorder simulates on the batch engine (the interpreter for designs
// the batch compiler rejects) unless DefaultEngine is EngineInterp,
// which differential tests set to run the whole pipeline on the
// interpreter.
var DefaultEngine = EngineBatched

func (e Engine) String() string {
	if e == EngineInterp {
		return "interp"
	}
	return "batched"
}

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
	for i, name := range d.Order {
		d.slotOf[name] = i
		d.slotWidths[i] = d.Signals[name].Width
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

// errDynamic marks constructs whose widths or spans depend on runtime
// signal values; the batch compiler rejects them.
var errDynamic = errors.New("not statically compilable")

// analyzer evaluates widths and constants of one design's expressions
// at compile time.
type analyzer struct {
	d *Design
}

// constOnlyEnv makes evalExpr usable as a compile-time constant
// evaluator: any signal read aborts the fold.
type constOnlyEnv struct{}

func (constOnlyEnv) readSignal(name string) (logic.Vector, error) {
	return logic.Vector{}, errDynamic
}
func (constOnlyEnv) signalWidth(name string) (int, bool) { return 0, false }

// constUint folds an expression that the interpreter evaluates with
// constUint at runtime. For genuinely constant expressions the result
// equals the runtime value (including the interpreter's "0 on X or
// error" convention); expressions that read signals report dynamic.
func (c *analyzer) constUint(e verilog.Expr) (uint64, error) {
	v, err := evalExpr(e, constOnlyEnv{}, 0)
	if err != nil {
		return 0, errDynamic
	}
	u, ok := v.Uint64()
	if !ok {
		return 0, nil // interpreter's constUint yields 0 for unknowns
	}
	return u, nil
}

// selfWidth is eval.go's selfWidth evaluated at compile time. It
// reports errDynamic where the runtime version would consult signal
// values (replication counts, part-select bounds).
func (c *analyzer) selfWidth(e verilog.Expr) (int, error) {
	switch x := e.(type) {
	case *verilog.Number:
		if x.Width == 0 {
			return 32, nil
		}
		return x.Width, nil
	case *verilog.StringLit:
		return 8 * len(x.Value), nil
	case *verilog.Ident:
		if s, ok := c.d.Signals[x.Name]; ok {
			return s.Width, nil
		}
		return 1, nil
	case *verilog.Unary:
		switch x.Op {
		case "~", "-":
			return c.selfWidth(x.X)
		default:
			return 1, nil
		}
	case *verilog.Binary:
		switch x.Op {
		case "+", "-", "*", "/", "%", "&", "|", "^", "~^", "^~":
			l, err := c.selfWidth(x.X)
			if err != nil {
				return 0, err
			}
			r, err := c.selfWidth(x.Y)
			if err != nil {
				return 0, err
			}
			if r > l {
				return r, nil
			}
			return l, nil
		case "<<", ">>", ">>>", "<<<", "**":
			return c.selfWidth(x.X)
		default:
			return 1, nil
		}
	case *verilog.Ternary:
		l, err := c.selfWidth(x.Then)
		if err != nil {
			return 0, err
		}
		r, err := c.selfWidth(x.Else)
		if err != nil {
			return 0, err
		}
		if r > l {
			return r, nil
		}
		return l, nil
	case *verilog.Concat:
		total := 0
		for _, p := range x.Parts {
			w, err := c.selfWidth(p)
			if err != nil {
				return 0, err
			}
			total += w
		}
		if total == 0 {
			return 1, nil
		}
		return total, nil
	case *verilog.Repl:
		n, err := c.constUint(x.Count)
		if err != nil {
			return 0, err
		}
		if n < 1 {
			n = 1
		}
		w, err := c.selfWidth(x.Value)
		if err != nil {
			return 0, err
		}
		return int(n) * w, nil
	case *verilog.Index:
		return 1, nil
	case *verilog.PartSelect:
		hi, err := c.constUint(x.MSB)
		if err != nil {
			return 0, err
		}
		lo, err := c.constUint(x.LSB)
		if err != nil {
			return 0, err
		}
		if hi < lo {
			hi, lo = lo, hi
		}
		return int(hi-lo) + 1, nil
	default:
		return 1, nil
	}
}

// lhsWidth mirrors Instance.lhsWidth at compile time.
func (c *analyzer) lhsWidth(lhs verilog.Expr) (int, error) {
	switch x := lhs.(type) {
	case *verilog.Ident:
		if s, ok := c.d.Signals[x.Name]; ok {
			return s.Width, nil
		}
		return 1, nil
	case *verilog.Index:
		return 1, nil
	case *verilog.PartSelect:
		hi, err := c.constUint(x.MSB)
		if err != nil {
			return 0, err
		}
		lo, err := c.constUint(x.LSB)
		if err != nil {
			return 0, err
		}
		if hi < lo {
			hi, lo = lo, hi
		}
		return int(hi-lo) + 1, nil
	case *verilog.Concat:
		total := 0
		for _, p := range x.Parts {
			w, err := c.lhsWidth(p)
			if err != nil {
				return 0, err
			}
			total += w
		}
		return total, nil
	default:
		return 1, nil
	}
}
