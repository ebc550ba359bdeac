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

// FuzzBatchLaneMatchesInterp is the single-DUT differential: every
// single-DUT simulation runs as a one-lane batch program, so a
// one-lane BatchInstance must read equal to an interpreter Instance on
// every port after every step, and the two must agree on whether a
// step errors. The problem index picks a dataset golden; the fuzz
// bytes pick a mutant of it (byte 0: mutation count 0-2, bytes 1-8:
// mutation seed) and then the stimulus, one input port value at a
// time (see stimulus). Designs the batch compiler rejects are skipped:
// they run on the interpreter wholesale.
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
		prog, err := sim.CompileBatch(d, []*sim.Design{d})
		if err != nil || prog.Lanes() != 1 {
			return
		}
		b := sim.NewBatchInstance(prog)
		in := sim.NewInstance(d)
		stim := &stimulus{data: data[9:]}

		// step applies one operation to both engines and reports
		// whether simulation may continue.
		step := func(label string, bf func() error, sf func() error) bool {
			t.Helper()
			berr := bf()
			if berr == nil {
				berr = b.LaneErr(0)
			}
			ierr := sf()
			if (berr != nil) != (ierr != nil) {
				t.Fatalf("%s: %s: batch err=%v, interp err=%v", p.Name, label, berr, ierr)
			}
			if ierr != nil {
				return false
			}
			for _, port := range d.Ports {
				bv, err1 := b.Get(port.Name, 0)
				iv, err2 := in.Get(port.Name)
				if err1 != nil || err2 != nil {
					t.Fatalf("%s: %s: read %s: %v / %v", p.Name, label, port.Name, err1, err2)
				}
				if bv.String() != iv.String() {
					t.Fatalf("%s: %s: port %s: batch %s, interp %s", p.Name, label, port.Name, bv, iv)
				}
			}
			return true
		}

		if !step("zero", b.ZeroInputs, in.ZeroInputs) {
			return
		}
		for si := 0; si < 64; si++ {
			for _, port := range d.Ports {
				if port.Dir == sim.Out || port.Name == p.Clock {
					continue
				}
				v, ok := stim.next(port.Width)
				if !ok {
					return
				}
				name := port.Name
				if !step(name, func() error { return b.SetInput(name, v) }, func() error { return in.SetInput(name, v) }) {
					return
				}
			}
			if p.Kind == dataset.SEQ {
				if !step("tick", func() error { return b.Tick(p.Clock) }, func() error { return in.Tick(p.Clock) }) {
					return
				}
			} else if !step("settle", b.Settle, in.Settle) {
				return
			}
		}
	})
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
	mut, _ := mutate.Mutate(mod, rand.New(rand.NewSource(seed)), count)
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
