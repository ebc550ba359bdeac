package sim

import (
	"fmt"
	"io"
	"strings"

	"correctbench/internal/logic"
	"correctbench/internal/verilog"
)

const maxLoopIterations = 1 << 17

// finishRequest is panicked by $finish and recovered by the scheduler.
type finishRequest struct{}

// state is what the interpreter's statement rules (exec, resolveLValue,
// sysCall) run against: an Instance, or one lane of a BatchInstance
// (laneState) for a body the batch compiler leaves to these rules.
// Reads and widths come through verilog.Env; writes arrive resolved,
// and each state applies them with its own dirty tracking.
type state interface {
	verilog.Env
	// layout is the design whose slots assignment targets resolve to.
	layout() *Design
	// applyWrite performs a blocking write.
	applyWrite(w resolvedWrite)
	// queueNBA queues a nonblocking write, applied after the wave's
	// edge processes ran.
	queueNBA(w resolvedWrite)
	// sys is the state system tasks and delay controls act on.
	sys() *sysState
	// writeBuf is scratch that exec resolves an assignment's writes
	// into; they are applied or queued before the next one resolves.
	writeBuf() *[]resolvedWrite
}

// sysState is what system tasks and delay controls act on.
type sysState struct {
	// Stdout receives $display output.
	Stdout io.Writer
	// Now is the current simulation time (cycle count ×10 under the
	// cycle API; event time under Run).
	Now uint64
	// Finished is set by $finish under the cycle API.
	Finished bool

	// wait is non-nil while executing inside the timed scheduler; it
	// suspends the current process for n time units.
	wait func(n uint64)
}

// exec executes a statement against st. Blocking assignments write
// through immediately; non-blocking assignments are queued on st and
// applied by the caller at the end of the wave.
func exec(st state, s verilog.Stmt) error {
	switch x := s.(type) {
	case nil, *verilog.Null:
		return nil

	case *verilog.Block:
		for _, sub := range x.Stmts {
			if err := exec(st, sub); err != nil {
				return err
			}
		}
		return nil

	case *verilog.Assign:
		ctx, _ := verilog.LHSWidth(x.LHS, st)
		val, err := verilog.Eval(x.RHS, st, ctx)
		if err != nil {
			return fmt.Errorf("%s: %v", x.Pos, err)
		}
		buf := st.writeBuf()
		writes, err := resolveLValue(st, x.LHS, val, x.Pos, (*buf)[:0])
		if err != nil {
			return err
		}
		*buf = writes
		for _, w := range writes {
			if x.NonBlocking {
				st.queueNBA(w)
			} else {
				st.applyWrite(w)
			}
		}
		return nil

	case *verilog.If:
		c, err := verilog.Eval(x.Cond, st, 0)
		if err != nil {
			return err
		}
		if logic.Truth(c) == logic.L1 {
			return exec(st, x.Then)
		}
		// Unknown conditions take the else branch, per IEEE if-else
		// semantics (condition must be true to take the then branch).
		if x.Else != nil {
			return exec(st, x.Else)
		}
		return nil

	case *verilog.Case:
		sel, err := verilog.Eval(x.Expr, st, 0)
		if err != nil {
			return err
		}
		var deflt verilog.Stmt
		for _, item := range x.Items {
			if item.Exprs == nil {
				deflt = item.Body
				continue
			}
			for _, le := range item.Exprs {
				lv, err := verilog.Eval(le, st, 0)
				if err != nil {
					return err
				}
				if verilog.CaseMatch(x.Kind)(sel, lv) {
					return exec(st, item.Body)
				}
			}
		}
		if deflt != nil {
			return exec(st, deflt)
		}
		return nil

	case *verilog.For:
		if err := exec(st, x.Init); err != nil {
			return err
		}
		for iter := 0; ; iter++ {
			if iter > maxLoopIterations {
				return fmt.Errorf("for loop exceeded %d iterations", maxLoopIterations)
			}
			c, err := verilog.Eval(x.Cond, st, 0)
			if err != nil {
				return err
			}
			if logic.Truth(c) != logic.L1 {
				return nil
			}
			if err := exec(st, x.Body); err != nil {
				return err
			}
			if err := exec(st, x.Step); err != nil {
				return err
			}
		}

	case *verilog.Repeat:
		cv, err := verilog.Eval(x.Count, st, 0)
		if err != nil {
			return err
		}
		n, ok := cv.Uint64()
		if !ok {
			return nil // repeat (x) runs zero times
		}
		if n > maxLoopIterations {
			return fmt.Errorf("repeat count %d too large", n)
		}
		for i := uint64(0); i < n; i++ {
			if err := exec(st, x.Body); err != nil {
				return err
			}
		}
		return nil

	case *verilog.Delay:
		wait := st.sys().wait
		if wait == nil {
			return fmt.Errorf("delay control is only allowed in initial/timed processes")
		}
		av, err := verilog.Eval(x.Amount, st, 0)
		if err != nil {
			return err
		}
		n, _ := av.Uint64()
		wait(n)
		return exec(st, x.Body)

	case *verilog.SysCall:
		return sysCall(st, x)

	default:
		return fmt.Errorf("unsupported statement %T", s)
	}
}

// resolvedWrite is a fully resolved assignment target span.
type resolvedWrite struct {
	slot   int32
	hi, lo int
	val    logic.Vector
	whole  bool
}

// resolveLValue flattens an lvalue expression into concrete writes,
// appended to out. Dynamic bit selects are resolved now (so NBA targets
// use the index at assignment time, per Verilog). Writes through
// unknown indexes are dropped.
func resolveLValue(st state, lhs verilog.Expr, val logic.Vector, pos verilog.Pos, out []resolvedWrite) ([]resolvedWrite, error) {
	d := st.layout()
	switch x := lhs.(type) {
	case *verilog.Ident:
		slot, ok := d.slotOf[x.Name]
		if !ok {
			return nil, fmt.Errorf("%s: assignment to unknown signal %q", pos, x.Name)
		}
		return append(out, resolvedWrite{slot: int32(slot), val: val.Resize(d.slotWidths[slot]), whole: true}), nil

	case *verilog.Index:
		id, ok := x.X.(*verilog.Ident)
		if !ok {
			return nil, fmt.Errorf("%s: nested select on non-identifier", pos)
		}
		slot, ok2 := d.slotOf[id.Name]
		if !ok2 {
			return nil, fmt.Errorf("%s: assignment to unknown signal %q", pos, id.Name)
		}
		idxV, err := verilog.Eval(x.Index, st, 0)
		if err != nil {
			return nil, err
		}
		idx, ok3 := idxV.Uint64()
		if !ok3 || idx >= uint64(d.slotWidths[slot]) {
			return out, nil // write through unknown/out-of-range index: no-op
		}
		return append(out, resolvedWrite{slot: int32(slot), hi: int(idx), lo: int(idx), val: val.Resize(1)}), nil

	case *verilog.PartSelect:
		id, ok := x.X.(*verilog.Ident)
		if !ok {
			return nil, fmt.Errorf("%s: nested select on non-identifier", pos)
		}
		slot, ok2 := d.slotOf[id.Name]
		if !ok2 {
			return nil, fmt.Errorf("%s: assignment to unknown signal %q", pos, id.Name)
		}
		hiV, err := verilog.Eval(x.MSB, st, 0)
		if err != nil {
			return nil, err
		}
		loV, err := verilog.Eval(x.LSB, st, 0)
		if err != nil {
			return nil, err
		}
		msb, ok3 := hiV.Uint64()
		lsb, ok4 := loV.Uint64()
		if !ok3 || !ok4 {
			return out, nil
		}
		hi, lo, err := verilog.SelectSpan(msb, lsb)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", pos, err)
		}
		h, l, ok5 := verilog.WriteSpan(hi, lo, d.slotWidths[slot])
		if !ok5 {
			return out, nil
		}
		return append(out, resolvedWrite{slot: int32(slot), hi: h, lo: l, val: val.Resize(h - l + 1)}), nil

	case *verilog.Concat:
		// {a, b} = val assigns the top bits to a, the low bits to b.
		offset, _, err := verilog.ConcatWidth(x.Parts, st, verilog.LHSWidth)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", pos, err)
		}
		val = val.Resize(offset)
		for _, p := range x.Parts {
			w, _ := verilog.LHSWidth(p, st)
			offset -= w
			part := logic.Slice(val, offset+w-1, offset)
			if out, err = resolveLValue(st, p, part, pos, out); err != nil {
				return nil, err
			}
		}
		return out, nil

	default:
		return nil, fmt.Errorf("%s: invalid assignment target %T", pos, lhs)
	}
}

// sysCall implements the supported system tasks.
func sysCall(st state, x *verilog.SysCall) error {
	if verilog.NoOpTask(x.Name) {
		return nil // accepted, no effect in this simulator
	}
	sys := st.sys()
	switch x.Name {
	case "$finish", "$stop":
		if sys.wait != nil {
			panic(finishRequest{})
		}
		sys.Finished = true
		return nil
	case "$display", "$write", "$fdisplay", "$fwrite", "$strobe", "$monitor":
		args := x.Args
		if (x.Name == "$fdisplay" || x.Name == "$fwrite") && len(args) > 0 {
			args = args[1:] // drop file descriptor
		}
		if sys.Stdout == io.Discard {
			// Nothing reads the text, so build none: evaluate the values
			// formatArgs would, in its order, for its errors.
			if len(args) > 0 {
				if _, ok := args[0].(*verilog.StringLit); ok {
					args = args[1:]
				}
			}
			for _, a := range args {
				if _, err := verilog.Eval(a, st, 0); err != nil {
					return err
				}
			}
			return nil
		}
		text, err := formatArgs(st, args)
		if err != nil {
			return err
		}
		if x.Name == "$write" || x.Name == "$fwrite" {
			fmt.Fprint(sys.Stdout, text)
		} else {
			fmt.Fprintln(sys.Stdout, text)
		}
		return nil
	default:
		return fmt.Errorf("%s: unsupported system task %s", x.Pos, x.Name)
	}
}

// formatArgs renders $display-style arguments: an optional leading
// format string with %d/%b/%h/%0d/%t/%s verbs, remaining values
// rendered as decimals.
func formatArgs(st state, args []verilog.Expr) (string, error) {
	if len(args) == 0 {
		return "", nil
	}
	var sb strings.Builder
	rest := args
	if lit, ok := args[0].(*verilog.StringLit); ok {
		rest = args[1:]
		f := lit.Value
		argi := 0
		for i := 0; i < len(f); i++ {
			c := f[i]
			if c == '\\' && i+1 < len(f) {
				i++
				switch f[i] {
				case 'n':
					sb.WriteByte('\n')
				case 't':
					sb.WriteByte('\t')
				default:
					sb.WriteByte(f[i])
				}
				continue
			}
			if c != '%' {
				sb.WriteByte(c)
				continue
			}
			// Parse verb, skipping width/zero flags.
			j := i + 1
			for j < len(f) && (f[j] >= '0' && f[j] <= '9') {
				j++
			}
			if j >= len(f) {
				sb.WriteByte('%')
				break
			}
			verb := f[j]
			i = j
			if verb == '%' {
				sb.WriteByte('%')
				continue
			}
			if verb == 't' || verb == 'T' {
				sb.WriteString(fmt.Sprintf("%d", st.sys().Now))
				continue
			}
			if argi >= len(rest) {
				sb.WriteString("<missing>")
				continue
			}
			v, err := verilog.Eval(rest[argi], st, 0)
			if err != nil {
				return "", err
			}
			argi++
			sb.WriteString(formatVector(v, verb))
		}
		for ; argi < len(rest); argi++ {
			v, err := verilog.Eval(rest[argi], st, 0)
			if err != nil {
				return "", err
			}
			sb.WriteString(" " + formatVector(v, 'd'))
		}
		return sb.String(), nil
	}
	// No format string: print all values as decimals.
	parts := make([]string, 0, len(rest))
	for _, a := range rest {
		v, err := verilog.Eval(a, st, 0)
		if err != nil {
			return "", err
		}
		parts = append(parts, formatVector(v, 'd'))
	}
	return strings.Join(parts, " "), nil
}

func formatVector(v logic.Vector, verb byte) string {
	switch verb {
	case 'b', 'B':
		return v.String()
	case 'h', 'H', 'x', 'X':
		if u, ok := v.Uint64(); ok {
			return fmt.Sprintf("%x", u)
		}
		return strings.Repeat("x", (v.Width()+3)/4)
	case 'd', 'D', 's', 'S', 'c', 'C':
		if u, ok := v.Uint64(); ok {
			return fmt.Sprintf("%d", u)
		}
		return "x"
	default:
		return v.String()
	}
}
