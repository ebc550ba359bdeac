package sim_test

import (
	"context"
	"encoding/binary"
	"math/rand"
	"testing"

	"correctbench/internal/dataset"
	"correctbench/internal/logic"
	"correctbench/internal/mutate"
	"correctbench/internal/sim"
	"correctbench/internal/verilog"
)

// FuzzBatchLaneMatchesInterp is the lane differential. Every
// single-DUT simulation runs as a one-lane batch program, so a
// one-lane BatchInstance must read equal to an interpreter Instance on
// every port after every step, and the two must agree on whether a
// step errors. Mutant sets run as patched lanes over the golden, so a
// two-lane [golden, mutant] program over the golden base must match
// two interpreter Instances lane by lane: every port after every step,
// and each lane's error, text included, at the step it occurs. The
// problem index picks a dataset golden; the fuzz bytes pick a mutant
// of it (byte 0: mutation count 0-2, bytes 1-8: mutation seed) and
// then the stimulus, one input port value at a time (see stimulus).
// Designs the batch compiler rejects are skipped: they run on the
// interpreter wholesale.
func FuzzBatchLaneMatchesInterp(f *testing.F) {
	probs := dataset.All()
	for i := range probs {
		seed := make([]byte, 9, 9+64)
		seed[0] = byte(i)
		binary.LittleEndian.PutUint64(seed[1:], uint64(i)*0x9e3779b97f4a7c15)
		r := rand.New(rand.NewSource(int64(i)))
		for len(seed) < cap(seed) {
			seed = append(seed, byte(r.Intn(256)))
		}
		f.Add(uint16(i), seed)
	}
	f.Fuzz(func(t *testing.T, pi uint16, data []byte) {
		if len(data) < 9 {
			return
		}
		p := probs[int(pi)%len(probs)]
		d := fuzzDesign(t, p, int(data[0]%3), int64(binary.LittleEndian.Uint64(data[1:9])))
		if d == nil {
			return
		}
		ops := fuzzOps(p, d.Ports, data[9:])
		checkOneLane(t, p, d, ops)
		checkTwoLanes(t, p, d, ops)
	})
}

// cycleSim is the cycle API shared by BatchInstance and Instance.
type cycleSim interface {
	ZeroInputs() error
	SetInput(name string, v logic.Vector) error
	Settle() error
	Tick(clk string) error
}

// fuzzOp is one stimulus operation, replayed on every engine.
type fuzzOp struct {
	label string
	run   func(cycleSim) error
}

// fuzzOps decodes stimulus bytes into operations: zero the inputs,
// then up to 64 cycles of one value per non-clock input followed by a
// tick (sequential problems) or a settle. The sequence ends where the
// bytes run out.
func fuzzOps(p *dataset.Problem, ports []sim.Port, data []byte) []fuzzOp {
	ops := []fuzzOp{{"zero", cycleSim.ZeroInputs}}
	stim := &stimulus{data: data}
	for si := 0; si < 64; si++ {
		for _, port := range ports {
			if port.Dir == sim.Out || port.Name == p.Clock {
				continue
			}
			v, ok := stim.next(port.Width)
			if !ok {
				return ops
			}
			name := port.Name
			ops = append(ops, fuzzOp{name, func(s cycleSim) error { return s.SetInput(name, v) }})
		}
		if p.Kind == dataset.SEQ {
			ops = append(ops, fuzzOp{"tick", func(s cycleSim) error { return s.Tick(p.Clock) }})
		} else {
			ops = append(ops, fuzzOp{"settle", cycleSim.Settle})
		}
	}
	return ops
}

// checkOneLane runs d as a one-lane program of its own against the
// interpreter.
func checkOneLane(t *testing.T, p *dataset.Problem, d *sim.Design, ops []fuzzOp) {
	t.Helper()
	prog, err := sim.CompileBatch(d, []*sim.Design{d})
	if err != nil || prog.Lanes() != 1 {
		return
	}
	b := sim.NewBatchInstance(prog)
	in := sim.NewInstance(d)
	for _, op := range ops {
		berr := op.run(b)
		if berr == nil {
			berr = b.LaneErr(0)
		}
		ierr := op.run(in)
		if (berr != nil) != (ierr != nil) {
			t.Fatalf("%s: %s: batch err=%v, interp err=%v", p.Name, op.label, berr, ierr)
		}
		if ierr != nil {
			return
		}
		for _, port := range d.Ports {
			bv, err1 := b.Get(port.Name, 0)
			iv, err2 := in.Get(port.Name)
			if err1 != nil || err2 != nil {
				t.Fatalf("%s: %s: read %s: %v / %v", p.Name, op.label, port.Name, err1, err2)
			}
			if bv.String() != iv.String() {
				t.Fatalf("%s: %s: port %s: batch %s, interp %s", p.Name, op.label, port.Name, bv, iv)
			}
		}
	}
}

// checkTwoLanes runs [golden, d] as patched lanes over the golden base
// against two interpreter Instances, whenever d gets a lane. A lane
// that errs is dead from then on; the other keeps being compared.
func checkTwoLanes(t *testing.T, p *dataset.Problem, d *sim.Design, ops []fuzzOp) {
	t.Helper()
	g, err := p.Elaborate()
	if err != nil {
		t.Fatal(err)
	}
	prog, err := sim.CompileBatch(g, []*sim.Design{g, d})
	if err != nil || prog.VariantLane(0) < 0 || prog.VariantLane(1) < 0 {
		return
	}
	lanes := []int{prog.VariantLane(0), prog.VariantLane(1)}
	b := sim.NewBatchInstance(prog)
	ins := []*sim.Instance{sim.NewInstance(g), sim.NewInstance(d)}
	dead := []bool{false, false}
	for _, op := range ops {
		gerr := op.run(b)
		for i, lane := range lanes {
			if dead[i] {
				continue
			}
			berr := gerr
			if berr == nil {
				berr = b.LaneErr(lane)
			}
			ierr := op.run(ins[i])
			if (berr != nil) != (ierr != nil) || (ierr != nil && berr.Error() != ierr.Error()) {
				t.Fatalf("%s: %s: lane %d: batch err=%v, interp err=%v", p.Name, op.label, lane, berr, ierr)
			}
			if ierr != nil {
				dead[i] = true
				continue
			}
			for _, port := range g.Ports {
				bv, err1 := b.Get(port.Name, lane)
				iv, err2 := ins[i].Get(port.Name)
				if err1 != nil || err2 != nil {
					t.Fatalf("%s: %s: lane %d: read %s: %v / %v", p.Name, op.label, lane, port.Name, err1, err2)
				}
				if bv.String() != iv.String() {
					t.Fatalf("%s: %s: lane %d: port %s: batch %s, interp %s", p.Name, op.label, lane, port.Name, bv, iv)
				}
			}
		}
		if dead[0] && dead[1] {
			return
		}
	}
}

// fuzzDesign elaborates p's golden design (count 0) or a count-fault
// mutant of it drawn from seed; nil when the mutant does not elaborate.
func fuzzDesign(t *testing.T, p *dataset.Problem, count int, seed int64) *sim.Design {
	t.Helper()
	if count == 0 {
		d, err := p.Elaborate()
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	mod, err := p.Module()
	if err != nil {
		t.Fatal(err)
	}
	mut, _, _ := mutate.Mutate(mod, rand.New(rand.NewSource(seed)), count)
	d, err := sim.ElaborateSourceContext(context.Background(), verilog.PrintModule(mut), p.Top)
	if err != nil {
		return nil
	}
	return d
}

// stimulus decodes fuzz bytes into input values. Each value starts with
// a control byte: when its low three bits are zero the value is
// four-state (two bits per bit, 0/1/X/Z), otherwise it is two-state,
// read from the next bytes little-endian.
type stimulus struct{ data []byte }

func (s *stimulus) next(width int) (logic.Vector, bool) {
	if len(s.data) == 0 {
		return logic.Vector{}, false
	}
	ctl := s.data[0]
	s.data = s.data[1:]
	v := logic.New(width)
	if ctl&7 == 0 {
		for bit := 0; bit < width; bit++ {
			if bit%4 == 0 && len(s.data) > 0 {
				ctl = s.data[0]
				s.data = s.data[1:]
			}
			v.SetBit(bit, logic.Bit(ctl>>(2*(bit%4))&3))
		}
		return v, true
	}
	for bit := 0; bit < width; bit++ {
		if bit%8 == 0 {
			if len(s.data) == 0 {
				break
			}
			ctl = s.data[0]
			s.data = s.data[1:]
		}
		if ctl>>(bit%8)&1 == 1 {
			v.SetBit(bit, logic.L1)
		}
	}
	return v, true
}
