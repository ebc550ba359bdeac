package exec

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"correctbench/internal/obs"
)

// Worker serves cells to coordinators: it accepts connections on a
// listener, reads run frames, executes each cell through its Runner
// and writes result frames back. A worker is stateless between cells
// — everything a cell needs travels in its Spec — which is what lets
// a coordinator reassign work to any node at any time.
//
// One worker serves any number of coordinator connections; cells from
// all connections share the worker's concurrency bound. Results are
// written back on the connection the run arrived on (one frame per
// write, serialized by a per-connection mutex so concurrent cell
// completions cannot interleave bytes).
type Worker struct {
	runner Runner
	slots  chan struct{} // concurrency semaphore

	mu       sync.Mutex
	conns    map[net.Conn]*connState
	draining bool
	active   int // cells currently executing

	completed uint64 // cells finished successfully
	failed    uint64 // cells whose runner returned an error
}

type connState struct {
	wmu sync.Mutex // serializes frame writes on this connection
}

// WorkerStats is a point-in-time view of a worker's counters.
type WorkerStats struct {
	Active    int    `json:"active"`
	Completed uint64 `json:"completed"`
	Failed    uint64 `json:"failed"`
	Draining  bool   `json:"draining,omitempty"`
}

// NewWorker returns a worker executing at most workers cells
// concurrently (min 1). The runner must be safe for concurrent calls.
func NewWorker(runner Runner, workers int) *Worker {
	if workers < 1 {
		workers = 1
	}
	return &Worker{
		runner: runner,
		slots:  make(chan struct{}, workers),
		conns:  map[net.Conn]*connState{},
	}
}

// Serve accepts coordinator connections until the listener is closed
// (which is how callers stop a worker: close the listener, then
// Drain). It always returns a non-nil error; after a clean close that
// error wraps net.ErrClosed.
func (w *Worker) Serve(ln net.Listener) error {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return fmt.Errorf("exec: worker accept: %w", err)
		}
		w.mu.Lock()
		if w.draining {
			w.mu.Unlock()
			conn.Close()
			continue
		}
		st := &connState{}
		w.conns[conn] = st
		w.mu.Unlock()
		go w.serveConn(conn, st)
	}
}

func (w *Worker) serveConn(conn net.Conn, st *connState) {
	defer func() {
		w.mu.Lock()
		delete(w.conns, conn)
		w.mu.Unlock()
		conn.Close()
	}()
	for {
		f, err := readFrame(conn)
		if err != nil {
			return // connection gone or corrupt; coordinator reassigns
		}
		switch f.Op {
		case opPing:
			w.mu.Lock()
			active, draining := w.active, w.draining
			w.mu.Unlock()
			if draining {
				w.send(conn, st, frame{Op: opDraining})
				continue
			}
			w.send(conn, st, frame{Op: opPong, Active: active})
		case opRun:
			c, err := cellFromFrame(f)
			if err != nil {
				w.send(conn, st, frame{Op: opResult, Index: f.Index, Error: err.Error()})
				continue
			}
			w.mu.Lock()
			if w.draining {
				w.mu.Unlock()
				// Refuse new work while draining; the coordinator
				// requeues on the draining frame.
				w.send(conn, st, frame{Op: opDraining})
				continue
			}
			w.active++
			w.mu.Unlock()
			go w.runCell(conn, st, c, f.Trace)
		default:
			// Unknown op: ignore. Forward compatibility within one
			// protocol version is additive ops only.
		}
	}
}

func (w *Worker) runCell(conn net.Conn, st *connState, c Cell, trace bool) {
	w.slots <- struct{}{}
	ctx := context.Background()
	var col *obs.Collector
	if trace {
		// The coordinator asked for phase timings: collect with this
		// worker's own execution start as the epoch — the coordinator
		// rebases the samples under its net_roundtrip span on arrival,
		// so no cross-node clock comparison ever happens.
		col = obs.NewCollector(time.Now()) //detlint:allow phase timings are wall-clock metadata shipped off-wire of the result contract
		ctx = obs.WithCollector(ctx, col)
	}
	o, err := w.runner(ctx, c)
	<-w.slots

	w.mu.Lock()
	w.active--
	if err != nil {
		w.failed++
	} else {
		w.completed++
	}
	w.mu.Unlock()

	res := frame{Op: opResult, Index: c.Index}
	if err != nil {
		res.Error = err.Error()
	} else {
		res.OK = true
		res.Outcome = &o
		res.Phases = col.Samples()
	}
	w.send(conn, st, res)
}

// send writes one frame under the connection's write lock. A result
// whose phase samples (which grow with N_R × validation rounds) push
// it past maxFrameBytes is resent without them: phases are off-wire
// metadata, while a dropped result would be re-dispatched forever on
// a one-node fleet. Other write errors are swallowed: a dead
// coordinator connection means the result is lost in transit, and the
// coordinator's straggler reassignment re-executes the cell elsewhere
// — outcomes are pure, so the duplicate is invisible.
func (w *Worker) send(conn net.Conn, st *connState, f frame) {
	st.wmu.Lock()
	defer st.wmu.Unlock()
	if err := writeFrame(conn, f); errors.Is(err, errFrameTooLarge) && f.Phases != nil {
		f.Phases = nil
		_ = writeFrame(conn, f)
	}
}

// Drain puts the worker into shutdown: it broadcasts a draining frame
// on every open coordinator connection (so coordinators requeue this
// node's queued and in-flight cells immediately instead of waiting
// for straggler timeouts), refuses new runs, and waits for in-flight
// cells to finish or ctx to expire. In-flight cells that do finish
// still report their results — the coordinator's first-wins dedup
// makes the race between a drained result and its reassigned
// duplicate harmless in either order.
func (w *Worker) Drain(ctx context.Context) error {
	w.mu.Lock()
	if !w.draining {
		w.draining = true
		//detlint:allow broadcast to all connections; delivery order is unobservable (each coordinator sees only its own)
		for conn, st := range w.conns {
			go func(conn net.Conn, st *connState) {
				st.wmu.Lock()
				defer st.wmu.Unlock()
				_ = writeFrame(conn, frame{Op: opDraining})
			}(conn, st)
		}
	}
	w.mu.Unlock()

	// Wait for the active count to reach zero by polling the
	// semaphore's capacity: acquiring every slot means no cell holds
	// one.
	for i := 0; i < cap(w.slots); i++ {
		select {
		case w.slots <- struct{}{}:
		case <-ctx.Done():
			return fmt.Errorf("exec: worker drain: %w (abandoning in-flight cells; coordinator will reassign)", ctx.Err())
		}
	}
	for i := 0; i < cap(w.slots); i++ {
		<-w.slots
	}
	return nil
}

// Stats returns the worker's live counters.
func (w *Worker) Stats() WorkerStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return WorkerStats{
		Active:    w.active,
		Completed: w.completed,
		Failed:    w.failed,
		Draining:  w.draining,
	}
}

// errWorkerClosed reports a listener closed under Serve.
var errWorkerClosed = errors.New("exec: worker closed")

// IsClosed reports whether err is the normal return of Serve after
// its listener was closed.
func IsClosed(err error) bool {
	return errors.Is(err, net.ErrClosed) || errors.Is(err, errWorkerClosed)
}
