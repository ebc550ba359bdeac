package sim

// Mutant-batched simulation: one compiled program, N design variants
// advancing in lockstep.
//
// Mutation-based testbench evaluation runs the same golden design
// plus N mutants — designs that differ from the golden in a handful
// of process bodies — through identical stimulus. A program elaborates
// that structure once: the base design's processes are compiled once,
// each variant contributes only per-lane patch tables for the bodies
// it actually changes (detected by comparing printed statements), and
// all N instances advance together over one state block addressed
// [slot*n + lane]. Every slot at most 64 bits wide — every dataset
// signal — lives in two pointer-free []uint64 planes holding the
// aval/bval words of logic.Vector's encoding, so the garbage collector
// never scans simulator state and a step moves words, not vectors. A
// rare wider slot lives in a side []logic.Vector. Get, GetSlot and
// SetInput keep their logic.Vector signatures and convert at the
// boundary; SlotWord reads a narrow slot's words directly. The compiled
// closures work on words only: a body that touches a wide slot or
// computes a wide value runs on the interpreter's rules (laneState).
//
// Scheduling is levelized when the whole batch's combinational region
// is provably static (see batch_sched.go): one topological pass per
// settle, running each process's compiled closure on its due lanes
// only. Otherwise every lane runs a replica of the scalar
// event-driven scheduler over the shared state block — still
// amortizing compilation, elaboration and the testbench/checker side
// of every run. Either schedule runs one compiled form per process.
//
// CompileBatch is the one place that decides which program each design
// runs in: the static designs share a levelized program, so one
// non-static mutant does not drag the rest onto the event-driven
// schedule; the others share an event-driven program; and a design
// whose signal layout differs from the base's runs as a one-lane
// program of its own.
//
// Either way each lane is bit-identical to a scalar Instance of the
// same design: per-lane dirty sets, per-lane bootstrap, per-lane NBA
// queues (including the queue surviving a no-edge propagate) all
// replicate instance.go exactly. A body vstatic.Folds rejects (see
// batch_compile.go) runs the interpreter's own exec on its lane
// (laneState, which converts between the planes and vectors at its
// boundary), so every design compiles; such a program runs
// event-driven.

import (
	"context"
	"fmt"
	"io"

	"correctbench/internal/logic"
	"correctbench/internal/verilog"
	"correctbench/internal/vstatic"
)

// BatchProgram is the compiled form of a base design plus the designs
// that run as its lanes. It is immutable after CompileBatch and safe to
// share across concurrent BatchInstances.
type BatchProgram struct {
	base *Design
	n    int

	laneDesign []*Design // lane -> the design it simulates

	combCode  []bStmt
	seqCode   []bStmt
	combNames []string
	seqNames  []string
	combSens  [][]int32 // per comb ordinal: base sensitivity slots

	// Patch tables: nil when every lane shares the base body, else a
	// per-lane slice with nil entries for unpatched lanes.
	combPatch    [][]bStmt
	seqPatch     [][]bStmt
	combSensLane [][][]int32 // sensitivity override for patched comb procs

	levelized  bool
	levelOrder []int32 // comb ordinals sorted by (level, ordinal)

	// interpreted marks programs where some lane runs a body on the
	// interpreter's rules (batchCompiler.body).
	interpreted bool

	// deferInputs marks batches whose settled state is a pure function
	// of the final input values: levelized, no sequential processes,
	// and no loop or nonblocking construct in any lane's comb bodies.
	// Such a batch may apply a group of input writes with a single
	// propagate (SetInputDeferred + Settle) and remain observationally
	// identical to settling after every write — there is no
	// intermediate fixpoint anything could observe (no edges, no NBA
	// queue) and the closures cannot error (no loop iteration caps).
	deferInputs bool
}

// CompileBatch gives every design one lane of a program and returns
// the programs that have lanes; LaneDesign maps each lane back to its
// design, and a design listed twice gets two lanes. The designs whose
// signal layout, ports and process structure match base's run as lanes
// of programs over base: the provably static ones share a levelized
// program and the rest an event-driven one, or all of them share one
// event-driven program when the static ones would not levelize anyway.
// Each design whose layout differs from base's gets a one-lane program
// compiled over itself. Programs come in that order, and lanes in input
// order within a program.
func CompileBatch(base *Design, designs []*Design) []*BatchProgram {
	var same, foreign []*Design
	for _, d := range designs {
		if batchCompatible(base, d) == nil {
			same = append(same, d)
		} else {
			foreign = append(foreign, d)
		}
	}
	var progs []*BatchProgram
	if len(same) > 0 {
		lev, moved := compileBatch(base, same, true)
		switch {
		case len(moved) == 0:
			progs = append(progs, lev)
		case !lev.levelized:
			// Moving the non-static designs out bought nothing
			// (levelization failed anyway); one event program for all.
			p, _ := compileBatch(base, same, false)
			progs = append(progs, p)
		default:
			if lev.n > 0 {
				progs = append(progs, lev)
			}
			p, _ := compileBatch(base, moved, false)
			progs = append(progs, p)
		}
	}
	for _, d := range foreign {
		p, _ := compileBatch(d, []*Design{d}, false)
		progs = append(progs, p)
	}
	return progs
}

// compileBatch compiles one program over base with a lane per design,
// each of which must pass batchCompatible against base. One body with
// an interpreted part, or one non-static design, drops the whole
// program to event-driven mode. With strict, a non-static design gets
// no lane instead while base's region is static and every base body
// folds; such designs are returned, in input order, for a program of
// their own.
func compileBatch(base *Design, designs []*Design, strict bool) (*BatchProgram, []*Design) {
	bc := &batchCompiler{d: base, env: verilog.ConstEnv{Width: base.signalWidth}}
	prog := &BatchProgram{base: base}

	nComb, nSeq := len(base.combProcs), len(base.seqProcs)
	prog.combCode = make([]bStmt, nComb)
	prog.combNames = make([]string, nComb)
	prog.combSens = make([][]int32, nComb)
	for ord, p := range base.combProcs {
		code, folded := bc.body(p.Body)
		prog.interpreted = prog.interpreted || !folded
		prog.combCode[ord] = code
		prog.combNames[ord] = p.Name
		prog.combSens[ord] = sensSlots(base, p)
	}
	prog.seqCode = make([]bStmt, nSeq)
	prog.seqNames = make([]string, nSeq)
	for ord, p := range base.seqProcs {
		code, folded := bc.body(p.Body)
		prog.interpreted = prog.interpreted || !folded
		prog.seqCode[ord] = code
		prog.seqNames[ord] = p.Name
	}

	// Proc index -> ordinal within its kind (finalize appends in order).
	ordOf := make([]int, len(base.Procs))
	ci, si := 0, 0
	for i, p := range base.Procs {
		switch p.Kind {
		case ProcComb:
			ordOf[i] = ci
			ci++
		case ProcSeq:
			ordOf[i] = si
			si++
		default:
			ordOf[i] = -1
		}
	}

	// edgeSets holds the dependency edges of every static lane's
	// region; one order over their union is valid for all lanes.
	var baseEdges [][2]int
	var edgeSets [][][2]int
	allStatic := false
	if !prog.interpreted {
		if r := designRegion(base); r.Static() {
			allStatic = true
			baseEdges = r.Edges()
			edgeSets = append(edgeSets, baseEdges)
		}
	}

	type patch struct {
		comb bool
		ord  int
		code bStmt
		sens []int32
	}
	var lanePatches [][]patch
	var moved []*Design
	baseBody := make(map[int]string) // proc index -> printed base body, lazily
	for _, v := range designs {
		var patches []patch
		interp := false
		for i, bp := range base.Procs {
			if bp.Kind != ProcComb && bp.Kind != ProcSeq {
				continue // initial/timed bodies never run under the cycle API
			}
			vp := v.Procs[i]
			if vp.Body == bp.Body {
				continue // shared AST (the base itself as a lane)
			}
			bs, ok := baseBody[i]
			if !ok {
				bs = verilog.StmtString(bp.Body)
				baseBody[i] = bs
			}
			if verilog.StmtString(vp.Body) == bs {
				continue
			}
			code, folded := bc.body(vp.Body) // slots are identical, compile against base
			interp = interp || !folded
			pt := patch{comb: bp.Kind == ProcComb, ord: ordOf[i], code: code}
			if pt.comb {
				pt.sens = sensSlots(base, vp)
			}
			patches = append(patches, pt)
		}
		edges := baseEdges
		if allStatic && v != base {
			static := false
			if !interp {
				r := designRegion(v)
				if static = r.Static(); static {
					edges = r.Edges()
				}
			}
			if !static {
				if strict {
					// Keep the program levelized: this design belongs
					// in an event-driven program of its own.
					moved = append(moved, v)
					continue
				}
				// One non-static design drops the whole program to
				// event-driven mode; no lane is lost.
				allStatic = false
			}
		}
		prog.interpreted = prog.interpreted || interp
		prog.laneDesign = append(prog.laneDesign, v)
		lanePatches = append(lanePatches, patches)
		if allStatic {
			edgeSets = append(edgeSets, edges)
		}
	}
	prog.n = len(prog.laneDesign)

	prog.combPatch = make([][]bStmt, nComb)
	prog.seqPatch = make([][]bStmt, nSeq)
	prog.combSensLane = make([][][]int32, nComb)
	for lane, patches := range lanePatches {
		for _, pt := range patches {
			if pt.comb {
				if prog.combPatch[pt.ord] == nil {
					prog.combPatch[pt.ord] = make([]bStmt, prog.n)
					prog.combSensLane[pt.ord] = make([][]int32, prog.n)
				}
				prog.combPatch[pt.ord][lane] = pt.code
				prog.combSensLane[pt.ord][lane] = pt.sens
			} else {
				if prog.seqPatch[pt.ord] == nil {
					prog.seqPatch[pt.ord] = make([]bStmt, prog.n)
				}
				prog.seqPatch[pt.ord][lane] = pt.code
			}
		}
	}

	if allStatic {
		if order, ok := vstatic.Levelize(nComb, edgeSets...); ok {
			prog.levelized = true
			prog.levelOrder = order
		}
	}
	if prog.levelized && nSeq == 0 {
		safe := combDeferSafe(base)
		for _, d := range prog.laneDesign {
			if !safe {
				break
			}
			if d != base {
				safe = combDeferSafe(d)
			}
		}
		prog.deferInputs = safe
	}
	return prog, moved
}

// combDeferSafe reports whether a design's comb bodies are free of the
// constructs that make intermediate settles observable or fallible:
// loops (runtime iteration caps can error on transient input combos)
// and nonblocking assignments (queued effects).
func combDeferSafe(d *Design) bool {
	safe := true
	for _, p := range d.combProcs {
		verilog.WalkStmts(p.Body, func(s verilog.Stmt) {
			switch x := s.(type) {
			case *verilog.For, *verilog.Repeat:
				safe = false
			case *verilog.Assign:
				if x.NonBlocking {
					safe = false
				}
			}
		})
	}
	return safe
}

// Base returns the design the program was compiled against.
func (p *BatchProgram) Base() *Design { return p.base }

// Lanes returns the number of lanes.
func (p *BatchProgram) Lanes() int { return p.n }

// LaneDesign returns the design a lane simulates.
func (p *BatchProgram) LaneDesign(lane int) *Design { return p.laneDesign[lane] }

// Levelized reports whether the batch runs on the levelized static
// schedule (true) or the per-lane event-driven fallback (false).
func (p *BatchProgram) Levelized() bool { return p.levelized }

// Interpreted reports whether some lane runs a process body on the
// interpreter's rules rather than as a folded closure: a body
// vstatic.Folds rejects. Such a body's $display output is discarded.
func (p *BatchProgram) Interpreted() bool { return p.interpreted }

// BatchInstance simulates every lane of a BatchProgram in lockstep
// under the cycle API (SetInput / Settle / Tick). Per-lane failures
// (simulation errors in one mutant) deactivate that lane and are
// reported by LaneErr; the shared methods only fail globally on
// context cancellation or unknown port names.
type BatchInstance struct {
	prog *BatchProgram
	n    int

	// wa and wb are the aval/bval planes (logic.Vector's encoding) of
	// every slot at most 64 bits wide, [slot*n + lane]. A wider slot's
	// entries stay zero; its value lives in wide, [wideOf[slot]*n + lane].
	wa, wb []uint64
	wide   []logic.Vector
	// pa and pb hold each edge slot's value at the last edge check,
	// [edgeIdx*n + lane]; prevWide does for wide edge slots (nil when
	// every edge slot is narrow).
	pa, pb   []uint64
	prevWide []logic.Vector

	dirty     []bool    // [slot*n + lane]
	dirtyList [][]int32 // per lane: dirty slots in write order
	ranAny    []bool    // per lane: some process ran (Instance.ranAny)
	boot      []bool    // scratch: bootstrap flag per lane

	nba    [][]resolvedWrite // per lane
	writes []resolvedWrite   // scratch: laneState.writeBuf, every lane's

	active  []bool
	laneErr []error
	nActive int

	// Scratch. A BatchInstance is single-goroutine, like Instance.
	pending  []bool // per comb ordinal, event-driven mode
	npending int
	runBuf   []int32
	liveBuf  []int32
	liveBuf2 []int32

	edgeChg []bool // per edge index, one lane at a time
	edgePos []bool
	edgeNeg []bool

	// views[lane] is the lane as interpreter state, for interpreted
	// bodies; nil unless the program has some.
	views []laneState
	// sys is the system-task state every lane shares: the time, $display
	// output (discarded) and $finish's flag, which nothing reads.
	sys sysState

	ctx context.Context
}

// NewBatchInstance creates an instance with every lane active and
// every signal X.
func NewBatchInstance(prog *BatchProgram) *BatchInstance {
	n := prog.n
	d := prog.base
	b := &BatchInstance{
		prog:      prog,
		n:         n,
		wa:        make([]uint64, len(d.Order)*n),
		wb:        make([]uint64, len(d.Order)*n),
		wide:      make([]logic.Vector, d.nWide*n),
		pa:        make([]uint64, len(d.edgeSlots)*n),
		pb:        make([]uint64, len(d.edgeSlots)*n),
		dirty:     make([]bool, len(d.Order)*n),
		dirtyList: make([][]int32, n),
		ranAny:    make([]bool, n),
		boot:      make([]bool, n),
		nba:       make([][]resolvedWrite, n),
		active:    make([]bool, n),
		laneErr:   make([]error, n),
		pending:   make([]bool, len(d.combProcs)),
		runBuf:    make([]int32, 0, len(d.combProcs)),
		liveBuf:   make([]int32, 0, n),
		liveBuf2:  make([]int32, 0, n),
		edgeChg:   make([]bool, len(d.edgeSlots)),
		edgePos:   make([]bool, len(d.edgeSlots)),
		edgeNeg:   make([]bool, len(d.edgeSlots)),
		sys:       sysState{Stdout: io.Discard},
	}
	for _, slot := range d.edgeSlots {
		if d.wideOf[slot] >= 0 {
			b.prevWide = make([]logic.Vector, len(d.edgeSlots)*n)
			break
		}
	}
	if prog.interpreted {
		b.views = make([]laneState, n)
		for lane := range b.views {
			b.views[lane] = laneState{b, int32(lane)}
		}
	}
	b.Reset()
	return b
}

// Reset returns the instance to the state NewBatchInstance leaves it
// in — every lane active with no error, every signal X, no pending
// events, time zero — without reallocating. A caller that keeps some
// lanes decided across runs deactivates them again.
func (b *BatchInstance) Reset() {
	d := b.prog.base
	n := b.n
	for slot, w := range d.slotWidths {
		if wi := d.wideOf[slot]; wi >= 0 {
			// One AllX per wide slot shared by all lanes: writes never
			// mutate a stored vector in place (applyWrite clones before
			// SetSlice).
			x := logic.AllX(w)
			row := b.wide[int(wi)*n : int(wi+1)*n]
			for lane := range row {
				row[lane] = x
			}
			continue
		}
		m := logic.Mask(w)
		for i := slot * n; i < (slot+1)*n; i++ {
			b.wa[i], b.wb[i] = m, m
		}
	}
	for i, slot := range d.edgeSlots {
		copy(b.pa[i*n:(i+1)*n], b.wa[int(slot)*n:(int(slot)+1)*n])
		copy(b.pb[i*n:(i+1)*n], b.wb[int(slot)*n:(int(slot)+1)*n])
		if wi := d.wideOf[slot]; wi >= 0 {
			copy(b.prevWide[i*n:(i+1)*n], b.wide[int(wi)*n:int(wi+1)*n])
		}
	}
	for i := range b.dirty {
		b.dirty[i] = false
	}
	for lane := 0; lane < n; lane++ {
		b.dirtyList[lane] = b.dirtyList[lane][:0]
		b.ranAny[lane] = false
		b.nba[lane] = b.nba[lane][:0]
		b.active[lane] = true
		b.laneErr[lane] = nil
	}
	b.nActive = n
	b.sys.Now, b.sys.Finished = 0, false
}

// BindContext attaches a cancellation context, mirroring
// Instance.BindContext: each propagate polls it, never-cancellable
// contexts are dropped, and the binding survives Reset.
func (b *BatchInstance) BindContext(ctx context.Context) {
	if ctx == nil || ctx.Done() == nil {
		b.ctx = nil
		return
	}
	b.ctx = ctx
}

// Lanes returns the lane count.
func (b *BatchInstance) Lanes() int { return b.n }

// Design returns the base design the batch was compiled against.
func (b *BatchInstance) Design() *Design { return b.prog.base }

// Active reports whether a lane is still simulating.
func (b *BatchInstance) Active(lane int) bool { return b.active[lane] }

// ActiveCount returns the number of live lanes.
func (b *BatchInstance) ActiveCount() int { return b.nActive }

// LaneErr returns the simulation error that killed a lane, if any.
func (b *BatchInstance) LaneErr(lane int) error { return b.laneErr[lane] }

// Deactivate withdraws a lane from simulation (e.g. a mutant already
// decided by an earlier scenario). Idempotent.
func (b *BatchInstance) Deactivate(lane int) {
	if b.active[lane] {
		b.active[lane] = false
		b.nActive--
	}
}

func (b *BatchInstance) failLane(lane int32, err error) {
	if b.laneErr[lane] == nil {
		b.laneErr[lane] = err
	}
	b.Deactivate(int(lane))
}

// Get returns the current value of a signal in one lane.
func (b *BatchInstance) Get(name string, lane int) (logic.Vector, error) {
	slot, ok := b.prog.base.slotOf[name]
	if !ok {
		return logic.Vector{}, fmt.Errorf("read of unknown signal %q", name)
	}
	return b.GetSlot(slot, lane), nil
}

// GetSlot reads one lane of a slot resolved with the base design's
// SlotOf, so hot read loops (one read per output per lane per step)
// skip the name lookup.
func (b *BatchInstance) GetSlot(slot, lane int) logic.Vector {
	d := b.prog.base
	if wi := d.wideOf[slot]; wi >= 0 {
		return b.wide[int(wi)*b.n+lane]
	}
	i := slot*b.n + lane
	return logic.FromWord(d.slotWidths[slot], b.wa[i], b.wb[i])
}

// SlotWord reads one lane of a slot as GetSlot does, as the aval/bval
// words of its value; ok is false for a slot wider than 64 bits, which
// only GetSlot reads.
func (b *BatchInstance) SlotWord(slot, lane int) (a, bv uint64, ok bool) {
	if b.prog.base.wideOf[slot] >= 0 {
		return 0, 0, false
	}
	i := slot*b.n + lane
	return b.wa[i], b.wb[i], true
}

// SetInput drives a top-level input on every active lane and
// propagates, like Instance.SetInput.
func (b *BatchInstance) SetInput(name string, v logic.Vector) error {
	if err := b.writeInput(name, v); err != nil {
		return err
	}
	return b.propagate()
}

// SetInputDeferred drives an input without propagating. Only valid on
// programs where InputsDeferrable reports true; the caller finishes
// the group of writes with one Settle, which reaches the identical
// state a propagate per write would have (see BatchProgram.deferInputs).
func (b *BatchInstance) SetInputDeferred(name string, v logic.Vector) error {
	return b.writeInput(name, v)
}

// InputsDeferrable reports whether this batch may group input writes
// under a single Settle via SetInputDeferred.
func (b *BatchInstance) InputsDeferrable() bool { return b.prog.deferInputs }

func (b *BatchInstance) writeInput(name string, v logic.Vector) error {
	p := b.prog.base.Port(name)
	if p == nil || p.Dir == Out {
		return fmt.Errorf("sim: %q is not an input port", name)
	}
	slot := int32(b.prog.base.slotOf[name])
	if p.Width > logic.WordBits {
		w := resolvedWrite{slot: slot, val: v.Resize(p.Width), whole: true}
		for lane := int32(0); lane < int32(b.n); lane++ {
			if b.active[lane] {
				b.applyWrite(lane, w)
			}
		}
		return nil
	}
	// v.Resize(p.Width) is v's low word under the port's mask.
	m := logic.Mask(p.Width)
	va, vb := v.LowWord()
	va, vb = va&m, vb&m
	for lane := int32(0); lane < int32(b.n); lane++ {
		if b.active[lane] {
			b.writeWord(lane, slot, va, vb)
		}
	}
	return nil
}

// SetInputUint is SetInput with a uint64 value.
func (b *BatchInstance) SetInputUint(name string, v uint64) error {
	p := b.prog.base.Port(name)
	if p == nil {
		return fmt.Errorf("sim: unknown port %q", name)
	}
	return b.SetInput(name, logic.FromUint64(p.Width, v))
}

// Settle propagates all active lanes to quiescence.
func (b *BatchInstance) Settle() error { return b.propagate() }

// Tick runs one full clock cycle on the named clock input.
func (b *BatchInstance) Tick(clk string) error {
	if err := b.SetInputUint(clk, 1); err != nil {
		return err
	}
	b.sys.Now += 5
	if err := b.SetInputUint(clk, 0); err != nil {
		return err
	}
	b.sys.Now += 5
	return nil
}

// TickN runs n clock cycles.
func (b *BatchInstance) TickN(clk string, n int) error {
	for i := 0; i < n; i++ {
		if err := b.Tick(clk); err != nil {
			return err
		}
	}
	return nil
}

// ZeroInputs drives every input port on every active lane to zero.
// Deferrable batches group all the writes under one settle.
func (b *BatchInstance) ZeroInputs() error {
	for _, p := range b.prog.base.Ports {
		if p.Dir == Out {
			continue
		}
		if b.prog.deferInputs {
			if err := b.writeInput(p.Name, logic.New(p.Width)); err != nil {
				return err
			}
			continue
		}
		if err := b.SetInput(p.Name, logic.New(p.Width)); err != nil {
			return err
		}
	}
	if b.prog.deferInputs {
		return b.propagate()
	}
	return nil
}

// markDirty records a changed slot for one lane.
func (b *BatchInstance) markDirty(lane, slot int32) {
	i := int(slot)*b.n + int(lane)
	if !b.dirty[i] {
		b.dirty[i] = true
		b.dirtyList[lane] = append(b.dirtyList[lane], slot)
	}
}

// applyWrite mirrors Instance.applyWrite for one lane.
func (b *BatchInstance) applyWrite(lane int32, w resolvedWrite) {
	wi := b.prog.base.wideOf[w.slot]
	if wi < 0 {
		va, vb := w.val.LowWord()
		if w.whole {
			b.writeWord(lane, w.slot, va, vb)
		} else {
			m := logic.Mask(w.hi - w.lo + 1)
			b.writeSpan(lane, w.slot, w.hi, w.lo, va&m, vb&m)
		}
		return
	}
	i := int(wi)*b.n + int(lane)
	cur := b.wide[i]
	var next logic.Vector
	if w.whole {
		next = w.val
	} else {
		next = cur.Resize(cur.Width())
		next.SetSlice(w.hi, w.lo, w.val)
	}
	if !next.Equal(cur) {
		b.wide[i] = next
		b.markDirty(lane, w.slot)
	}
}

// queueNBA queues a nonblocking write on a lane's NBA list.
func (b *BatchInstance) queueNBA(lane int32, w resolvedWrite) { b.nba[lane] = append(b.nba[lane], w) }

// writeWord is a whole write of a narrow slot: va and vb are the new
// value's planes, already cut to the slot's width.
func (b *BatchInstance) writeWord(lane, slot int32, va, vb uint64) {
	i := int(slot)*b.n + int(lane)
	if b.wa[i] != va || b.wb[i] != vb {
		b.wa[i], b.wb[i] = va, vb
		b.markDirty(lane, slot)
	}
}

// writeSpan writes bits [hi:lo] of a narrow slot, a span within the
// slot; va and vb are the (hi-lo+1)-bit value's planes.
func (b *BatchInstance) writeSpan(lane, slot int32, hi, lo int, va, vb uint64) {
	i := int(slot)*b.n + int(lane)
	m := logic.Mask(hi-lo+1) << uint(lo)
	b.writeWord(lane, slot, b.wa[i]&^m|va<<uint(lo), b.wb[i]&^m|vb<<uint(lo))
}

// bit0 is bit 0 of a value given as its planes (logic.Vector.Bit(0)).
func bit0(a, b uint64) logic.Bit { return logic.Bit(a&1 | (b&1)<<1) }

// laneState is one lane of a BatchInstance as interpreter state: a body
// the batch compiler leaves to the interpreter's rules runs exec on it,
// reading and writing that lane's slots.
type laneState struct {
	b    *BatchInstance
	lane int32
}

// Get reads the lane's value of a signal.
func (v *laneState) Get(name string) (logic.Vector, error) {
	return v.b.Get(name, int(v.lane))
}

// SignalWidth is a signal's declared width; false for unknown names.
func (v *laneState) SignalWidth(name string) (int, bool) { return v.b.prog.base.signalWidth(name) }

func (v *laneState) layout() *Design { return v.b.prog.base }

func (v *laneState) applyWrite(w resolvedWrite) { v.b.applyWrite(v.lane, w) }

func (v *laneState) queueNBA(w resolvedWrite) { v.b.queueNBA(v.lane, w) }

func (v *laneState) sys() *sysState { return &v.b.sys }

func (v *laneState) writeBuf() *[]resolvedWrite { return &v.b.writes }

// propagate advances every active lane to quiescence.
func (b *BatchInstance) propagate() error {
	if b.ctx != nil {
		if err := b.ctx.Err(); err != nil {
			return err
		}
	}
	if b.nActive == 0 {
		return nil
	}
	// No-work fast path: with every live lane booted and nothing dirty,
	// settling is a no-op and no edge slot can have changed since the
	// previous propagate synced prev (common when a step re-drives
	// inputs with unchanged values).
	work := false
	for lane := 0; lane < b.n; lane++ {
		if b.active[lane] && (len(b.dirtyList[lane]) > 0 || !b.ranAny[lane]) {
			work = true
			break
		}
	}
	if !work {
		return nil
	}
	if b.prog.levelized {
		return b.propagateLevel()
	}
	for lane := int32(0); lane < int32(b.n); lane++ {
		if b.active[lane] {
			b.propagateED(lane)
		}
	}
	return nil
}

// Levelized mode --------------------------------------------------------

// propagateLevel is the batched propagate: settle all live lanes in
// one levelized pass, then fire edges per lane, repeating for lanes
// that fired.
func (b *BatchInstance) propagateLevel() error {
	live := b.liveBuf[:0]
	for lane := int32(0); lane < int32(b.n); lane++ {
		if b.active[lane] {
			live = append(live, lane)
		}
	}
	defer func() { b.liveBuf = live[:0] }()
	for wave := 0; wave < maxEdgeWaves; wave++ {
		if len(live) == 0 {
			return nil
		}
		b.settleLevel(live)
		next := b.liveBuf2[:0]
		for _, lane := range live {
			if !b.active[lane] {
				continue // settle error killed it
			}
			if b.fireEdgesLane(lane) && b.active[lane] {
				next = append(next, lane)
			}
		}
		b.liveBuf2 = live[:0]
		live = next
	}
	for _, lane := range live {
		b.failLane(lane, fmt.Errorf("sim: edge cascade did not settle after %d waves", maxEdgeWaves))
	}
	return nil
}

// settleLevel runs one topological pass over the comb processes. Each
// process runs on the lanes the scalar scheduler's pending test
// selects: bootstrap (nothing dirty, nothing ever ran) or a dirty
// sensitivity slot. Because every combinational writer of a
// sensitivity slot is scheduled at a lower level, one run per process
// reaches the same fixpoint as the scalar iteration. A lane's run
// touches only that lane's state, so each lane is tested and run in
// one step.
func (b *BatchInstance) settleLevel(live []int32) {
	prog := b.prog
	n := b.n
	for _, lane := range live {
		b.boot[lane] = len(b.dirtyList[lane]) == 0 && !b.ranAny[lane]
	}
	for _, ord := range prog.levelOrder {
		code := prog.combCode[ord]
		ovs := prog.combPatch[ord]
		sensOvs := prog.combSensLane[ord]
		for _, lane := range live {
			if b.laneErr[lane] != nil {
				continue
			}
			due := b.boot[lane]
			if !due {
				sens := prog.combSens[ord]
				if sensOvs != nil && sensOvs[lane] != nil {
					sens = sensOvs[lane]
				}
				for _, s := range sens {
					if b.dirty[int(s)*n+int(lane)] {
						due = true
						break
					}
				}
			}
			if !due {
				continue
			}
			c := code
			if ovs != nil && ovs[lane] != nil {
				c = ovs[lane]
			}
			b.ranAny[lane] = true
			if err := c(b, lane); err != nil {
				b.failLane(lane, fmt.Errorf("sim: in %s: %v", prog.combNames[ord], err))
			}
		}
	}
	// The schedule consumed the whole dirty set; clear it per lane.
	for _, lane := range live {
		if b.laneErr[lane] != nil {
			continue // dead lane, state frozen
		}
		for _, s := range b.dirtyList[lane] {
			b.dirty[int(s)*n+int(lane)] = false
		}
		b.dirtyList[lane] = b.dirtyList[lane][:0]
	}
}

// fireEdgesLane mirrors Instance.fireEdges for one lane. Used by both
// modes: edge structure (watched slots, sequential sensitivities) is
// identical across the whole batch by construction, only bodies can
// be patched. The early return on "nothing changed" leaves the lane's
// NBA queue untouched, exactly like the interpreter.
func (b *BatchInstance) fireEdgesLane(lane int32) bool {
	prog := b.prog
	d := prog.base
	n := b.n
	changed := false
	for i, slot := range d.edgeSlots {
		pi := i*n + int(lane)
		var pb, nb logic.Bit
		if wi := d.wideOf[slot]; wi >= 0 {
			prev, now := b.prevWide[pi], b.wide[int(wi)*n+int(lane)]
			if prev.Equal(now) {
				b.edgeChg[i] = false
				continue
			}
			pb, nb = prev.Bit(0), now.Bit(0)
			b.prevWide[pi] = now
		} else {
			si := int(slot)*n + int(lane)
			if b.pa[pi] == b.wa[si] && b.pb[pi] == b.wb[si] {
				b.edgeChg[i] = false
				continue
			}
			pb, nb = bit0(b.pa[pi], b.pb[pi]), bit0(b.wa[si], b.wb[si])
			b.pa[pi], b.pb[pi] = b.wa[si], b.wb[si]
		}
		b.edgeChg[i] = true
		b.edgePos[i] = isPosedge(pb, nb)
		b.edgeNeg[i] = isNegedge(pb, nb)
		changed = true
	}
	if !changed {
		return false
	}
	var fired bool
	for ord, p := range d.seqProcs {
		trigger := false
		for _, s := range p.edgeSens {
			if !b.edgeChg[s.idx] {
				continue
			}
			if (s.edge == verilog.EdgePos && b.edgePos[s.idx]) || (s.edge == verilog.EdgeNeg && b.edgeNeg[s.idx]) {
				trigger = true
				break
			}
		}
		if !trigger {
			continue
		}
		fired = true
		b.ranAny[lane] = true
		code := prog.seqCode[ord]
		if ovs := prog.seqPatch[ord]; ovs != nil && ovs[lane] != nil {
			code = ovs[lane]
		}
		if err := code(b, lane); err != nil {
			// The interpreter dies here with the NBA queue unapplied.
			b.failLane(lane, fmt.Errorf("sim: in %s: %v", prog.seqNames[ord], err))
			return fired
		}
	}
	for i := range b.nba[lane] {
		b.applyWrite(lane, b.nba[lane][i])
	}
	b.nba[lane] = b.nba[lane][:0]
	return fired
}

// Event-driven mode -----------------------------------------------------

// propagateED replicates Instance.propagate for one lane.
func (b *BatchInstance) propagateED(lane int32) {
	for wave := 0; wave < maxEdgeWaves; wave++ {
		if err := b.settleED(lane); err != nil {
			b.failLane(lane, err)
			return
		}
		fired := b.fireEdgesLane(lane)
		if b.laneErr[lane] != nil {
			return
		}
		if !fired {
			return
		}
	}
	b.failLane(lane, fmt.Errorf("sim: edge cascade did not settle after %d waves", maxEdgeWaves))
}

// settleED replicates Instance.settleComb for one lane, scheduling
// with the lane design's own combBySlot index (patched processes keep
// their variant sensitivities there). The pending set is shared
// scratch; it starts and ends empty on every call.
func (b *BatchInstance) settleED(lane int32) error {
	prog := b.prog
	d := prog.laneDesign[lane]
	if len(b.dirtyList[lane]) == 0 && !b.ranAny[lane] {
		for i := range b.pending {
			if !b.pending[i] {
				b.pending[i] = true
				b.npending++
			}
		}
	}
	b.schedulePendingED(lane, d)

	for iter := 0; b.npending > 0; iter++ {
		if iter > maxSettleIterations {
			for i := range b.pending {
				b.pending[i] = false
			}
			b.npending = 0
			return fmt.Errorf("sim: combinational logic did not settle (%d iterations); possible feedback loop", maxSettleIterations)
		}
		run := b.runBuf[:0]
		for ord := range b.pending {
			if b.pending[ord] {
				run = append(run, int32(ord))
				b.pending[ord] = false
			}
		}
		b.npending = 0
		for _, ord := range run {
			b.ranAny[lane] = true
			code := prog.combCode[ord]
			if ovs := prog.combPatch[ord]; ovs != nil && ovs[lane] != nil {
				code = ovs[lane]
			}
			if err := code(b, lane); err != nil {
				b.runBuf = run[:0]
				return fmt.Errorf("sim: in %s: %v", prog.combNames[ord], err)
			}
		}
		b.runBuf = run[:0]
		b.schedulePendingED(lane, d)
	}
	return nil
}

// schedulePendingED moves one lane's dirty set into the shared pending
// process set, mirroring Instance.schedulePending.
func (b *BatchInstance) schedulePendingED(lane int32, d *Design) {
	n := b.n
	for _, slot := range b.dirtyList[lane] {
		b.dirty[int(slot)*n+int(lane)] = false
		for _, ord := range d.combBySlot[slot] {
			if !b.pending[ord] {
				b.pending[ord] = true
				b.npending++
			}
		}
	}
	b.dirtyList[lane] = b.dirtyList[lane][:0]
}
