package testbench

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"

	"correctbench/internal/dataset"
	"correctbench/internal/sim"
)

// EmitDriver renders the Verilog driver track from the scenario list,
// in the style of AutoBench's generated drivers (Fig. 3 of the paper):
// a testbench module that instantiates the DUT, applies each scenario's
// stimuli and $displays the sampled signals. The text runs under
// cmd/vsim's timed scheduler.
//
// The emitted text always parses, given a problem whose source
// elaborates, whose name is an identifier and whose reset is "" or an
// input port, as the dataset and NewProblem guarantee: every other name
// it writes is a port of the elaborated design, and a scenario name
// holding a control character is quoted so it cannot end its comment
// line. That is why SyntaxOK passes a testbench whose DriverSource is
// empty without emitting anything once its problem elaborates. When
// the problem does not elaborate, EmitDriver returns a comment naming
// the error, which does not parse, and SyntaxOK fails such a
// testbench's driver track. EmitDriver also records on tb that a
// rendered text parses, so a caller that assigns it to DriverSource is
// not parsed either; any other explicit driver (a corrupted or edited
// one) is judged by parsing.
func EmitDriver(tb *Testbench) string {
	p := tb.Problem
	d, err := p.Elaborate()
	if err != nil {
		return "// driver emission failed: " + err.Error()
	}
	var sb strings.Builder
	sb.WriteString("// Auto-generated driver for " + p.Name + "\n")
	sb.WriteString("module " + p.Name + "_tb;\n")

	var ins, outs []sim.Port
	for _, pt := range d.Ports {
		if pt.Dir == sim.Out {
			outs = append(outs, pt)
		} else {
			ins = append(ins, pt)
		}
	}
	for _, pt := range ins {
		fmt.Fprintf(&sb, "    reg %s%s;\n", widthPrefix(pt.Width), pt.Name)
	}
	for _, pt := range outs {
		fmt.Fprintf(&sb, "    wire %s%s;\n", widthPrefix(pt.Width), pt.Name)
	}
	sb.WriteString("    integer scenario;\n")

	// DUT instantiation.
	var conns []string
	for _, pt := range d.Ports {
		conns = append(conns, fmt.Sprintf(".%s(%s)", pt.Name, pt.Name))
	}
	fmt.Fprintf(&sb, "    %s dut(%s);\n", p.Top, strings.Join(conns, ", "))

	if p.Kind == dataset.SEQ {
		sb.WriteString("    always #5 clk = ~clk;\n")
	}

	sb.WriteString("    initial begin\n")
	if p.Kind == dataset.SEQ {
		sb.WriteString("        clk = 0;\n")
	}
	display := displayStatement(p, ins, outs)
	for _, sc := range tb.Scenarios {
		fmt.Fprintf(&sb, "        // Scenario %d: %s\n", sc.Index, commentSafe(sc.Name))
		fmt.Fprintf(&sb, "        scenario = %d;\n", sc.Index)
		if p.Kind == dataset.SEQ && p.Reset != "" {
			fmt.Fprintf(&sb, "        %s = 1; #10 %s = 0;\n", p.Reset, p.Reset)
		}
		for _, st := range sc.Steps {
			var assigns []string
			for _, pt := range ins {
				if p.Kind == dataset.SEQ && (pt.Name == p.Clock || pt.Name == p.Reset) {
					continue
				}
				v, ok := st.Inputs[pt.Name]
				if !ok {
					continue
				}
				assigns = append(assigns, fmt.Sprintf("%s = %d'd%d", pt.Name, pt.Width, v))
			}
			if len(assigns) > 0 {
				fmt.Fprintf(&sb, "        %s;\n", strings.Join(assigns, "; "))
			}
			fmt.Fprintf(&sb, "        #10 %s\n", display)
		}
	}
	sb.WriteString("        $finish;\n")
	sb.WriteString("    end\nendmodule\n")
	src := sb.String()
	tb.driverSyntax.Store(&syntaxVerdict{src: src, ok: true})
	return src
}

// commentSafe returns a scenario name fit for a line comment. Only a
// newline ends a // comment, but a name from the wire may hold any
// control character, so such a name is written Go-quoted (escaped);
// generated names have none and are written as they are.
func commentSafe(name string) string {
	if strings.ContainsFunc(name, unicode.IsControl) {
		return strconv.Quote(name)
	}
	return name
}

func widthPrefix(w int) string {
	if w <= 1 {
		return ""
	}
	return fmt.Sprintf("[%d:0] ", w-1)
}

func displayStatement(p *dataset.Problem, ins, outs []sim.Port) string {
	var fields, args []string
	fields = append(fields, "scenario: %d")
	args = append(args, "scenario")
	for _, pt := range ins {
		if pt.Name == p.Clock {
			continue
		}
		fields = append(fields, pt.Name+" = %d")
		args = append(args, pt.Name)
	}
	for _, pt := range outs {
		fields = append(fields, pt.Name+" = %d")
		args = append(args, pt.Name)
	}
	return fmt.Sprintf("$display(\"%s\", %s);", strings.Join(fields, ", "), strings.Join(args, ", "))
}
