package harness

import (
	"fmt"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"context"

	"correctbench/internal/exec"
	"correctbench/internal/faults"
)

// confListener hands net.Pipe server ends to a worker's accept loop,
// giving conformance tests a real fleet transport without sockets.
type confListener struct {
	ch     chan net.Conn
	closed chan struct{}
	once   sync.Once
}

func newConfListener() *confListener {
	return &confListener{ch: make(chan net.Conn, 16), closed: make(chan struct{})}
}

func (l *confListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.ch:
		return c, nil
	case <-l.closed:
		return nil, net.ErrClosed
	}
}

func (l *confListener) Close() error {
	l.once.Do(func() { close(l.closed) })
	return nil
}

type confAddr string

func (a confAddr) Network() string { return "pipe" }
func (a confAddr) String() string  { return string(a) }

func (l *confListener) Addr() net.Addr { return confAddr("conf") }

// confFleet starts n in-process worker nodes, each running the full
// simulation pipeline through NewCellRunner, optionally behind a
// node-level fault injector, and returns a Remote executor dialing
// them over pipes.
func confFleet(t *testing.T, n int, plans map[string]faults.NodePlan) *exec.Remote {
	t.Helper()
	lns := map[string]*confListener{}
	injectors := map[string]*faults.Node{}
	var addrs []string
	for i := 0; i < n; i++ {
		addr := fmt.Sprintf("conf-node-%d:1", i)
		addrs = append(addrs, addr)
		ln := newConfListener()
		lns[addr] = ln
		var served net.Listener = ln
		if plan, ok := plans[addr]; ok {
			inj := faults.NewNode(plan)
			injectors[addr] = inj
			served = inj.WrapListener(ln)
		}
		w := exec.NewWorker(NewCellRunner(nil), 4)
		go w.Serve(served)
		t.Cleanup(func() { ln.Close() })
	}
	dial := func(ctx context.Context, addr string) (net.Conn, error) {
		ln := lns[addr]
		if ln == nil {
			return nil, fmt.Errorf("conformance fleet: unknown node %s", addr)
		}
		if inj := injectors[addr]; inj != nil && inj.Killed() {
			return nil, net.ErrClosed
		}
		c1, c2 := net.Pipe()
		select {
		case ln.ch <- c2:
			return c1, nil
		case <-ln.closed:
			c1.Close()
			c2.Close()
			return nil, net.ErrClosed
		}
	}
	r, err := exec.NewRemote(addrs, exec.RemoteOptions{
		Window:     2,
		Straggler:  500 * time.Millisecond,
		ProbeEvery: 20 * time.Millisecond,
		MaxMissed:  5,
		Dial:       dial,
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// normalizeCellEvent strips the operational metadata an executor is
// allowed to vary (wall-clock duration, executing node, cache state);
// everything else must be a pure function of the spec.
func normalizeCellEvent(ev CellEvent) CellEvent {
	ev.Duration = 0
	ev.Node = ""
	ev.Cached = false
	return ev
}

// TestCellExecutorConformance pins the CellExecutor contract at the
// harness level, for every executor the service can be configured
// with: the in-process pool, a 1-node remote fleet, a 4-node remote
// fleet, and a remote fleet under a lossy, laggy fault schedule. Each
// must release cell events in canonical index order and produce
// Results deeply equal to the sequential baseline — an executor
// decides where cells run, never what a run observes.
func TestCellExecutorConformance(t *testing.T) {
	probs := subset(t)[:4]
	baseCfg := func() Config {
		return Config{Reps: 1, Seed: 29, Problems: probs, Workers: 4}
	}

	run := func(t *testing.T, e exec.CellExecutor, workers int) (*Results, []CellEvent) {
		t.Helper()
		cfg := baseCfg()
		cfg.Workers = workers
		cfg.Executor = e
		var events []CellEvent
		var mu sync.Mutex
		cfg.OnCell = func(ev CellEvent) {
			mu.Lock()
			events = append(events, ev)
			mu.Unlock()
		}
		res, err := RunContext(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res, events
	}

	baseRes, baseEvents := run(t, nil, 1)
	total := 3 * len(probs)
	if len(baseEvents) != total {
		t.Fatalf("baseline released %d cells, want %d", len(baseEvents), total)
	}

	cases := []struct {
		name  string
		build func(t *testing.T) exec.CellExecutor
	}{
		{"local-pool", func(t *testing.T) exec.CellExecutor { return exec.Local() }},
		{"remote-1-node", func(t *testing.T) exec.CellExecutor { return confFleet(t, 1, nil) }},
		{"remote-4-node", func(t *testing.T) exec.CellExecutor { return confFleet(t, 4, nil) }},
		{"remote-faulted", func(t *testing.T) exec.CellExecutor {
			return confFleet(t, 3, map[string]faults.NodePlan{
				"conf-node-0:1": {Seed: 5, DropResultRate: 0.3},
				"conf-node-1:1": {
					Seed: 7, DelayResultRate: 0.5, MaxResultDelay: 30 * time.Millisecond,
					FrameLatencyRate: 0.3, MaxFrameLatency: 10 * time.Millisecond,
				},
			})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, events := run(t, tc.build(t), 4)
			if len(events) != total {
				t.Fatalf("released %d cells, want %d", len(events), total)
			}
			for i, ev := range events {
				if ev.Index != i {
					t.Fatalf("event %d has index %d: canonical order violated", i, ev.Index)
				}
				if got, want := normalizeCellEvent(ev), normalizeCellEvent(baseEvents[i]); !reflect.DeepEqual(got, want) {
					t.Fatalf("cell %d differs from baseline:\n got %+v\nwant %+v", i, got, want)
				}
			}
			if !reflect.DeepEqual(res.Outcomes, baseRes.Outcomes) {
				t.Fatal("Results.Outcomes differ from sequential baseline")
			}
		})
	}
}
