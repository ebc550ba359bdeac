package sim

import (
	"fmt"
	"sort"
)

// The timed scheduler executes initial blocks and delay-driven always
// blocks (e.g. "always #5 clk = ~clk") with event-driven time. Each
// timed process runs on its own goroutine; the scheduler hands a single
// run token between them, so process bodies execute one at a time with
// channel-enforced happens-before edges (no locking of instance state
// is needed).

type yieldKind int

const (
	yieldWait yieldKind = iota
	yieldDone
	yieldFinish
	yieldError
)

type yieldMsg struct {
	kind yieldKind
	at   uint64
	err  error
}

type abortRequest struct{}

type timedProc struct {
	proc   *Process
	resume chan struct{}
	yield  chan yieldMsg
	abort  chan struct{}
	done   bool
}

// Run executes the instance's initial and timed-always processes until
// every initial block completes, $finish executes, or simulation time
// exceeds maxTime. Combinational logic and clocked processes react to
// every write, exactly as under the cycle API.
func Run(in *Instance, maxTime uint64) error {
	var procs []*timedProc
	for _, p := range in.design.Procs {
		if p.Kind != ProcInitial && p.Kind != ProcTimed {
			continue
		}
		tp := &timedProc{
			proc:   p,
			resume: make(chan struct{}),
			yield:  make(chan yieldMsg),
			abort:  make(chan struct{}),
		}
		procs = append(procs, tp)
		go runTimedProc(in, tp)
	}
	if len(procs) == 0 {
		return in.propagate()
	}
	defer func() {
		// Unblock any still-waiting goroutines.
		for _, tp := range procs {
			if !tp.done {
				close(tp.abort)
				<-tp.yield
			}
		}
		in.wait = nil
	}()

	if err := in.propagate(); err != nil {
		return err
	}

	// wake[t] lists processes scheduled at time t; all start at 0.
	wake := map[uint64][]*timedProc{0: nil}
	wake[0] = append(wake[0], procs...)

	for len(wake) > 0 {
		// A bound context (BindContext) cancels between time batches,
		// mirroring the cycle API's per-wave checks in propagate.
		if in.ctx != nil {
			if err := in.ctx.Err(); err != nil {
				return err
			}
		}
		// Earliest event time.
		times := make([]uint64, 0, len(wake))
		for t := range wake {
			times = append(times, t)
		}
		sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
		t := times[0]
		if t > maxTime {
			return nil
		}
		in.Now = t
		batch := wake[t]
		delete(wake, t)

		for _, tp := range batch {
			if tp.done {
				continue
			}
			// Install this process's wait hook and hand over the token.
			tp := tp
			in.wait = func(n uint64) {
				tp.yield <- yieldMsg{kind: yieldWait, at: in.Now + n}
				select {
				case <-tp.resume:
				case <-tp.abort:
					panic(abortRequest{})
				}
			}
			tp.resume <- struct{}{}
			msg := <-tp.yield
			in.wait = nil
			switch msg.kind {
			case yieldWait:
				wake[msg.at] = append(wake[msg.at], tp)
			case yieldDone:
				tp.done = true
			case yieldFinish:
				tp.done = true
				in.Finished = true
				return in.propagate()
			case yieldError:
				tp.done = true
				return msg.err
			}
			if err := in.propagate(); err != nil {
				return err
			}
		}
	}
	return nil
}

func runTimedProc(in *Instance, tp *timedProc) {
	select {
	case <-tp.resume:
	case <-tp.abort:
		tp.yield <- yieldMsg{kind: yieldDone}
		return
	}
	defer func() {
		r := recover()
		switch r.(type) {
		case nil:
		case finishRequest:
			tp.yield <- yieldMsg{kind: yieldFinish}
		case abortRequest:
			tp.yield <- yieldMsg{kind: yieldDone}
		default:
			tp.yield <- yieldMsg{kind: yieldError, err: fmt.Errorf("sim: process %s panicked: %v", tp.proc.Name, r)}
		}
	}()
	if tp.proc.Kind == ProcTimed {
		// An always block without event control loops forever; the
		// abort channel (via wait) bounds it.
		for {
			if err := exec(in, tp.proc.Body); err != nil {
				tp.yield <- yieldMsg{kind: yieldError, err: err}
				return
			}
		}
	}
	err := exec(in, tp.proc.Body)
	if err != nil {
		tp.yield <- yieldMsg{kind: yieldError, err: err}
		return
	}
	tp.yield <- yieldMsg{kind: yieldDone}
}
