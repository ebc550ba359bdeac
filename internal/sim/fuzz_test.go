package sim_test

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"strings"
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
// every signal after every step, and the two must agree on whether a
// step errors. Mutant sets are placed by CompileBatch over the golden,
// so every lane of every program CompileBatch builds for [golden,
// mutant] must match an interpreter Instance of that lane's design:
// every signal after every step, and each lane's error, text included,
// at the step it occurs — whether the mutant is a patched lane beside
// the golden, moved to an event-driven program by the static split, or
// a one-lane program of its own for a signal layout that differs from
// the golden's. The problem index picks a dataset golden; the fuzz
// bytes pick a mutant of it (byte 0: mutation count 0-2, which process
// of fuzzExtra, if any, the mutant gets, and whether the golden gets
// it too — when not, the mutant's layout differs; bytes 1-8: mutation
// seed) and then the stimulus, one input port value at a time (see
// stimulus). Every golden is seeded twice: once with byte 0 its index,
// and once with fuzzExtra's wide round trip in both designs.
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
		wide := append([]byte{byte(i%3 + 3*3)}, seed[1:]...)
		f.Add(uint16(i), wide)
	}
	f.Fuzz(func(t *testing.T, pi uint16, data []byte) {
		if len(data) < 9 {
			return
		}
		p := probs[int(pi)%len(probs)]
		extra := int(data[0] / 3 % 4)
		d := fuzzDesign(t, p, int(data[0]%3), extra, int64(binary.LittleEndian.Uint64(data[1:9])))
		if d == nil {
			return
		}
		ops := fuzzOps(p, d.Ports, data[9:])
		checkOneLane(t, p, d, ops)
		gExtra := extra
		if data[0]/12%2 == 1 {
			gExtra = 0
		}
		if g := fuzzDesign(t, p, 0, gExtra, 0); g != nil {
			checkTwoLanes(t, p, g, d, ops)
		}
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
	progs := sim.CompileBatch(d, []*sim.Design{d})
	if len(progs) != 1 || progs[0].Lanes() != 1 {
		t.Fatalf("%s: the design alone compiles to %d programs, want one of one lane", p.Name, len(progs))
	}
	b := sim.NewBatchInstance(progs[0])
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
		for _, name := range d.Order {
			bv, err1 := b.Get(name, 0)
			iv, err2 := in.Get(name)
			if err1 != nil || err2 != nil {
				t.Fatalf("%s: %s: read %s: %v / %v", p.Name, op.label, name, err1, err2)
			}
			if bv.String() != iv.String() {
				t.Fatalf("%s: %s: signal %s: batch %s, interp %s", p.Name, op.label, name, bv, iv)
			}
		}
	}
}

// checkTwoLanes places [g, d] with CompileBatch over the golden base g,
// checks that each gets exactly one lane, and runs every lane of every
// program against an interpreter Instance of its LaneDesign. A lane
// that errs is dead from then on; the other keeps being compared.
func checkTwoLanes(t *testing.T, p *dataset.Problem, g, d *sim.Design, ops []fuzzOp) {
	t.Helper()
	type laneRun struct {
		prog, lane int
		d          *sim.Design
		in         *sim.Instance
		dead       bool
	}
	designs := []*sim.Design{g, d} // g == d for an unmutated golden
	progs := sim.CompileBatch(g, designs)
	bs := make([]*sim.BatchInstance, len(progs))
	var runs []*laneRun
	placed := map[*sim.Design]int{}
	for k, prog := range progs {
		bs[k] = sim.NewBatchInstance(prog)
		for lane := 0; lane < prog.Lanes(); lane++ {
			ld := prog.LaneDesign(lane)
			placed[ld]++
			runs = append(runs, &laneRun{prog: k, lane: lane, d: ld, in: sim.NewInstance(ld)})
		}
	}
	for _, x := range designs {
		placed[x]--
	}
	if len(runs) != len(designs) || placed[g] != 0 || placed[d] != 0 {
		t.Fatalf("%s: [golden, mutant] placed on %d lanes of %d programs, want one lane each", p.Name, len(runs), len(progs))
	}
	errs := make([]error, len(bs))
	for _, op := range ops {
		for k, b := range bs {
			errs[k] = op.run(b)
		}
		live := 0
		for _, r := range runs {
			if r.dead {
				continue
			}
			b := bs[r.prog]
			berr := errs[r.prog]
			if berr == nil {
				berr = b.LaneErr(r.lane)
			}
			ierr := op.run(r.in)
			if (berr != nil) != (ierr != nil) || (ierr != nil && berr.Error() != ierr.Error()) {
				t.Fatalf("%s: %s: program %d lane %d: batch err=%v, interp err=%v", p.Name, op.label, r.prog, r.lane, berr, ierr)
			}
			if ierr != nil {
				r.dead = true
				continue
			}
			live++
			for _, name := range r.d.Order {
				bv, err1 := b.Get(name, r.lane)
				iv, err2 := r.in.Get(name)
				if err1 != nil || err2 != nil {
					t.Fatalf("%s: %s: program %d lane %d: read %s: %v / %v", p.Name, op.label, r.prog, r.lane, name, err1, err2)
				}
				if bv.String() != iv.String() {
					t.Fatalf("%s: %s: program %d lane %d: signal %s: batch %s, interp %s", p.Name, op.label, r.prog, r.lane, name, bv, iv)
				}
			}
		}
		if live == 0 {
			return
		}
	}
}

// fuzzDesign elaborates p's golden design (count 0) or a count-fault
// mutant of it drawn from seed, with fuzzExtra's process extra
// appended; nil when the result does not elaborate.
func fuzzDesign(t *testing.T, p *dataset.Problem, count, extra int, seed int64) *sim.Design {
	t.Helper()
	if count == 0 && extra == 0 {
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
	if count > 0 {
		mod, _, _ = mutate.Mutate(mod, rand.New(rand.NewSource(seed)), count)
	}
	src := verilog.PrintModule(mod)
	if extra > 0 {
		g, err := p.Elaborate()
		if err != nil {
			t.Fatal(err)
		}
		at := strings.LastIndex(src, "endmodule")
		src = src[:at] + fuzzExtra(p, g.Ports, extra) + "\n" + src[at:]
	}
	d, err := sim.ElaborateSourceContext(context.Background(), src, p.Top)
	if err != nil {
		return nil
	}
	return d
}

// fuzzExtra is a process appended to the mutant and, usually, the
// golden too. Each has a body the batch compiler leaves to the
// interpreter's rules, so such bodies run beside folded ones in the
// same lanes: 1 a $display comb process, 2 a comb process reading and
// writing part-selects whose bounds are signal values, and 3 a comb
// process that builds values wider than 64 bits from narrow signals (a
// wide slot and wide intermediates) and cuts them back to narrow ones
// through a part-select, a bit-select, a shift and an assignment. All
// read p's first output, which a mutant's lane may hold differently,
// and its last data input (the output again when it has none).
func fuzzExtra(p *dataset.Problem, ports []sim.Port, extra int) string {
	var out, in string
	for _, port := range ports {
		switch {
		case port.Dir == sim.Out && out == "":
			out = port.Name
		case port.Dir != sim.Out && port.Name != p.Clock:
			in = port.Name
		}
	}
	if in == "" {
		in = out
	}
	switch extra {
	case 1:
		return fmt.Sprintf("always @(*) $display(\"cb %%b %%d\", %s, %s);", out, in)
	case 3:
		return fmt.Sprintf("reg [71:0] cb_wide;\nreg [7:0] cb_back;\nalways @(*) begin cb_wide = {%[1]s, %[2]s, 64'd1} >> 3; "+
			"cb_back = {cb_wide[70:66], cb_wide[%[2]s & 7'd71], ({%[2]s, 64'd0, %[1]s, 1'b1} >> 64) + %[1]s}; end", out, in)
	}
	return fmt.Sprintf("reg [7:0] cb_dyn;\nalways @(*) begin cb_dyn = 8'd0; cb_dyn[(%s & 3'd7):0] = %s[(%s & 2'd3):0]; end", in, out, in)
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
