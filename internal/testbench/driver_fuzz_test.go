package testbench

import (
	"encoding/binary"
	"slices"
	"testing"

	"correctbench/internal/dataset"
	"correctbench/internal/verilog"
)

// FuzzEmitDriver checks that passing an empty driver and EmitDriver's
// recorded verdict are sound: over arbitrary scenarios on every dataset
// problem, Driver() must parse, and SyntaxOK must equal a fresh parse
// of Driver() and the checker, whether DriverSource is empty or holds
// the emitted text.
// The problem index picks a dataset problem; names holds the scenario
// names back to back, and the fuzz bytes say where each ends and what
// the steps drive (see fuzzScenarios): any uint64 value, with ports
// missing and with ports the design does not have. The corpus seeds
// each problem with a name that once ended the driver's comment line.
func FuzzEmitDriver(f *testing.F) {
	names := []string{"a\nb", "a\nendmodule", "x\r\ny"}
	for i := range dataset.All() {
		name := names[i%len(names)]
		data := []byte{3, byte(len(name)), 2}
		for k := 0; k < 48; k++ {
			data = append(data, byte(i+7*k), byte(k*37))
		}
		f.Add(uint16(i), name+"corner\tcase", data)
	}
	f.Fuzz(func(t *testing.T, pi uint16, names string, data []byte) {
		probs := dataset.All()
		p := probs[int(pi)%len(probs)]
		d, err := p.Elaborate()
		if err != nil {
			t.Fatal(err)
		}
		ports := []string{"nope"}
		for _, pt := range d.Ports {
			ports = append(ports, pt.Name)
		}
		tb := &Testbench{
			Problem:       p,
			Scenarios:     fuzzScenarios(names, ports, data),
			CheckerSource: p.Source,
			CheckerTop:    p.Top,
			CheckerSticky: -1,
		}
		_, checkerErr := verilog.Parse(tb.CheckerSource)
		// The rendered driver first (DriverSource empty), then the same
		// text assigned explicitly, as cmd/cbbench's fromWire assigns it.
		for _, explicit := range []bool{false, true} {
			if explicit {
				tb.DriverSource = EmitDriver(tb)
			}
			driver := tb.Driver()
			if _, err := verilog.Parse(driver); err != nil {
				t.Fatalf("%s: emitted driver (explicit %v) does not parse: %v\n%s", p.Name, explicit, err, driver)
			}
			if got, want := tb.SyntaxOK(), checkerErr == nil; got != want {
				t.Fatalf("%s: SyntaxOK (explicit %v) = %v, fresh parse = %v", p.Name, explicit, got, want)
			}
		}
	})
}

// fuzzScenarios decodes up to 5 scenarios from the fuzz bytes. Per
// scenario: one byte is its name's length in names (what is left of
// names when it runs short), one byte its step count (0-3). Per step
// and port, including the scenario's own name as one more unknown
// port: a byte whose bit 0 drives the port and whose bit 1 takes the
// value from the next 8 bytes (else the byte's upper bits). Missing
// bytes read as 0.
func fuzzScenarios(names string, ports []string, data []byte) []Scenario {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	var out []Scenario
	for i := range int(next() % 6) {
		n := min(int(next()), len(names))
		sc := Scenario{Index: i + 1, Name: names[:n]}
		names = names[n:]
		for range int(next() % 4) {
			st := Step{Inputs: map[string]uint64{}}
			for _, port := range append(slices.Clip(ports), sc.Name) {
				b := next()
				if b&1 == 0 {
					continue
				}
				v := uint64(b >> 2)
				if b&2 != 0 {
					var w [8]byte
					for k := range w {
						w[k] = next()
					}
					v = binary.LittleEndian.Uint64(w[:])
				}
				st.Inputs[port] = v
			}
			sc.Steps = append(sc.Steps, st)
		}
		out = append(out, sc)
	}
	return out
}
