package sim

import (
	"context"
	"fmt"
	"io"

	"correctbench/internal/logic"
	"correctbench/internal/verilog"
)

// Instance is the AST interpreter over an elaborated design. All
// signals start X; drive inputs with SetInput, propagate with Settle
// or Tick, and read results with Get.
//
// All state is slot-indexed: signal values live in a dense
// []logic.Vector addressed by the integer slots the design resolved at
// elaboration time. Name-based lookups happen only at the API boundary
// (SetInput / Get).
type Instance struct {
	design *Design

	vals []logic.Vector // current value per slot
	prev []logic.Vector // last seen values, indexed like design.edgeSlots

	dirty     []bool  // per slot: value changed since last settle scan
	dirtyList []int32 // slots with dirty set, in write order

	pending  []bool // per comb-proc ordinal: scheduled to run
	npending int
	runBuf   []int32 // scratch for the settle loop

	edgeChg []bool // per edge-watched signal: changed this wave
	edgePos []bool
	edgeNeg []bool

	nba    []resolvedWrite
	writes []resolvedWrite // scratch: writeBuf

	// sysState holds Stdout, Now and Finished.
	sysState

	// ctx, when non-nil, is polled at every propagation wave; once the
	// context is cancelled the next Settle/SetInput/Tick returns its
	// error. Set with BindContext.
	ctx context.Context

	// ranAny records that some process has run since the last Reset;
	// until then a settle with nothing dirty bootstraps every comb
	// process.
	ranAny bool
}

// NewInstance creates a fresh instance with every signal X.
func NewInstance(d *Design) *Instance {
	in := &Instance{
		design:    d,
		vals:      make([]logic.Vector, len(d.Order)),
		prev:      make([]logic.Vector, len(d.edgeSlots)),
		dirty:     make([]bool, len(d.Order)),
		dirtyList: make([]int32, 0, len(d.Order)),
		pending:   make([]bool, len(d.combProcs)),
		runBuf:    make([]int32, 0, len(d.combProcs)),
		edgeChg:   make([]bool, len(d.edgeSlots)),
		edgePos:   make([]bool, len(d.edgeSlots)),
		edgeNeg:   make([]bool, len(d.edgeSlots)),
		sysState:  sysState{Stdout: io.Discard},
	}
	in.Reset()
	return in
}

// Reset returns the instance to its freshly constructed state (every
// signal X, no pending events, time zero) without reallocating. A
// Reset instance behaves exactly like a new one, so one instance can
// run scenario after scenario.
func (in *Instance) Reset() {
	d := in.design
	for i := range in.vals {
		in.vals[i] = logic.AllX(d.slotWidths[i])
	}
	for i, slot := range d.edgeSlots {
		in.prev[i] = in.vals[slot]
	}
	for i := range in.dirty {
		in.dirty[i] = false
	}
	in.dirtyList = in.dirtyList[:0]
	for i := range in.pending {
		in.pending[i] = false
	}
	in.npending = 0
	in.nba = in.nba[:0]
	in.Now = 0
	in.Finished = false
	in.ranAny = false
}

// BindContext attaches a cancellation context to the instance: every
// propagation wave (one step batch) polls it and the first
// Settle/SetInput/Tick after cancellation returns ctx.Err(). Contexts
// that can never be cancelled (context.Background and friends) are
// dropped so the hot path keeps a single nil check. The binding
// survives Reset, so a reused instance stays cancellable across scenarios.
func (in *Instance) BindContext(ctx context.Context) {
	if ctx == nil || ctx.Done() == nil {
		in.ctx = nil
		return
	}
	in.ctx = ctx
}

// Design returns the elaborated design this instance simulates.
func (in *Instance) Design() *Design { return in.design }

// state interface -------------------------------------------------------

// SignalWidth is a signal's declared width; false for unknown names.
func (in *Instance) SignalWidth(name string) (int, bool) { return in.design.signalWidth(name) }

func (in *Instance) layout() *Design { return in.design }

func (in *Instance) applyWrite(w resolvedWrite) {
	cur := in.vals[w.slot]
	var next logic.Vector
	if w.whole {
		next = w.val
	} else {
		next = cur.Resize(cur.Width())
		next.SetSlice(w.hi, w.lo, w.val)
	}
	if !next.Equal(cur) {
		in.vals[w.slot] = next
		in.markDirty(w.slot)
	}
}

func (in *Instance) queueNBA(w resolvedWrite) { in.nba = append(in.nba, w) }

func (in *Instance) sys() *sysState { return &in.sysState }

func (in *Instance) writeBuf() *[]resolvedWrite { return &in.writes }

// ------------------------------------------------------------------------

// markDirty records a slot whose value changed.
func (in *Instance) markDirty(slot int32) {
	if !in.dirty[slot] {
		in.dirty[slot] = true
		in.dirtyList = append(in.dirtyList, slot)
	}
}

// SetInput drives a top-level input port. The change propagates through
// combinational logic and fires any edge-sensitive processes watching
// the signal (asynchronous set/reset), so no explicit Settle call is
// required afterwards.
func (in *Instance) SetInput(name string, v logic.Vector) error {
	p := in.design.Port(name)
	if p == nil || p.Dir == Out {
		return fmt.Errorf("sim: %q is not an input port", name)
	}
	slot := in.design.slotOf[name]
	in.applyWrite(resolvedWrite{slot: int32(slot), val: v.Resize(p.Width), whole: true})
	return in.propagate()
}

// SetInputUint is SetInput with a uint64 value.
func (in *Instance) SetInputUint(name string, v uint64) error {
	p := in.design.Port(name)
	if p == nil {
		return fmt.Errorf("sim: unknown port %q", name)
	}
	return in.SetInput(name, logic.FromUint64(p.Width, v))
}

// Get returns the current value of any signal (ports included). With
// SignalWidth it makes an Instance the verilog.Env its processes
// evaluate in.
func (in *Instance) Get(name string) (logic.Vector, error) {
	slot, ok := in.design.slotOf[name]
	if !ok {
		return logic.Vector{}, fmt.Errorf("read of unknown signal %q", name)
	}
	return in.vals[slot], nil
}

// GetSlot reads a slot resolved with the design's SlotOf.
func (in *Instance) GetSlot(slot int) logic.Vector { return in.vals[slot] }

// MustGet is Get for known-good names.
func (in *Instance) MustGet(name string) logic.Vector {
	v, err := in.Get(name)
	if err != nil {
		panic(err)
	}
	return v
}

// Settle propagates combinational logic to a fixpoint and fires any
// resulting edges.
func (in *Instance) Settle() error { return in.propagate() }

// Tick runs one full clock cycle on the named clock input: rising edge,
// then falling edge, with NBA and combinational settling after each.
func (in *Instance) Tick(clk string) error {
	if err := in.SetInputUint(clk, 1); err != nil {
		return err
	}
	in.Now += 5
	if err := in.SetInputUint(clk, 0); err != nil {
		return err
	}
	in.Now += 5
	return nil
}

// TickN runs n clock cycles.
func (in *Instance) TickN(clk string, n int) error {
	for i := 0; i < n; i++ {
		if err := in.Tick(clk); err != nil {
			return err
		}
	}
	return nil
}

const (
	maxSettleIterations = 1000
	maxEdgeWaves        = 64
)

// propagate settles combinational logic, then fires edge processes
// whose watched signals changed, repeating until quiescent.
func (in *Instance) propagate() error {
	if in.ctx != nil {
		if err := in.ctx.Err(); err != nil {
			return err
		}
	}
	for wave := 0; wave < maxEdgeWaves; wave++ {
		if err := in.settleComb(); err != nil {
			return err
		}
		fired, err := in.fireEdges()
		if err != nil {
			return err
		}
		if !fired {
			return nil
		}
	}
	return fmt.Errorf("sim: edge cascade did not settle after %d waves", maxEdgeWaves)
}

// schedulePending moves the dirty set into the pending process set and
// clears it.
func (in *Instance) schedulePending() {
	d := in.design
	for _, slot := range in.dirtyList {
		in.dirty[slot] = false
		for _, ord := range d.combBySlot[slot] {
			if !in.pending[ord] {
				in.pending[ord] = true
				in.npending++
			}
		}
	}
	in.dirtyList = in.dirtyList[:0]
}

// settleComb runs level-sensitive processes until no signal changes.
func (in *Instance) settleComb() error {
	d := in.design
	// Initial run of every comb process the first time around.
	if len(in.dirtyList) == 0 && !in.ranAny {
		for i := range in.pending {
			if !in.pending[i] {
				in.pending[i] = true
				in.npending++
			}
		}
	}
	in.schedulePending()

	for iter := 0; in.npending > 0; iter++ {
		if iter > maxSettleIterations {
			return fmt.Errorf("sim: combinational logic did not settle (%d iterations); possible feedback loop", maxSettleIterations)
		}
		// Deterministic order: design order of processes.
		run := in.runBuf[:0]
		for ord := range in.pending {
			if in.pending[ord] {
				run = append(run, int32(ord))
				in.pending[ord] = false
			}
		}
		in.npending = 0
		for _, ord := range run {
			p := d.combProcs[ord]
			in.ranAny = true
			if err := exec(in, p.Body); err != nil {
				return fmt.Errorf("sim: in %s: %v", p.Name, err)
			}
		}
		in.runBuf = run[:0]
		in.schedulePending()
	}
	return nil
}

// fireEdges compares watched signals with their previous values, runs
// matching edge processes, applies the NBA queue and reports whether
// anything ran.
func (in *Instance) fireEdges() (bool, error) {
	d := in.design
	changed := false
	for i, slot := range d.edgeSlots {
		prev, now := in.prev[i], in.vals[slot]
		if prev.Equal(now) {
			in.edgeChg[i] = false
			continue
		}
		pb, nb := prev.Bit(0), now.Bit(0)
		in.edgeChg[i] = true
		in.edgePos[i] = isPosedge(pb, nb)
		in.edgeNeg[i] = isNegedge(pb, nb)
		in.prev[i] = now
		changed = true
	}
	if !changed {
		return false, nil
	}
	var fired bool
	for _, p := range d.seqProcs {
		trigger := false
		for _, s := range p.edgeSens {
			if !in.edgeChg[s.idx] {
				continue
			}
			if (s.edge == verilog.EdgePos && in.edgePos[s.idx]) || (s.edge == verilog.EdgeNeg && in.edgeNeg[s.idx]) {
				trigger = true
				break
			}
		}
		if !trigger {
			continue
		}
		fired = true
		in.ranAny = true
		if err := exec(in, p.Body); err != nil {
			return false, fmt.Errorf("sim: in %s: %v", p.Name, err)
		}
	}
	// NBA region: apply queued writes after all triggered processes ran.
	for i := range in.nba {
		in.applyWrite(in.nba[i])
	}
	in.nba = in.nba[:0]
	return fired, nil
}

// isPosedge implements the IEEE 1364 posedge transition table.
func isPosedge(from, to logic.Bit) bool {
	if from == to {
		return false
	}
	switch from {
	case logic.L0:
		return true // 0 -> 1/x/z
	case logic.X, logic.Z:
		return to == logic.L1
	default:
		return false
	}
}

// isNegedge implements the IEEE 1364 negedge transition table.
func isNegedge(from, to logic.Bit) bool {
	if from == to {
		return false
	}
	switch from {
	case logic.L1:
		return true // 1 -> 0/x/z
	case logic.X, logic.Z:
		return to == logic.L0
	default:
		return false
	}
}

// ZeroInputs drives every input port (including clocks) to zero, the
// canonical starting state used by the testbench framework.
func (in *Instance) ZeroInputs() error {
	for _, p := range in.design.Ports {
		if p.Dir == Out {
			continue
		}
		if err := in.SetInput(p.Name, logic.New(p.Width)); err != nil {
			return err
		}
	}
	return nil
}
