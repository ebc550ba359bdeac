package exec

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"correctbench/internal/obs"
	"correctbench/internal/store"
)

// ---- in-process transport ----

// pipeListener is a net.Listener fed by an in-process dialer: every
// dial makes a net.Pipe and hands the server end to Accept.
type pipeListener struct {
	ch     chan net.Conn
	closed chan struct{}
	once   sync.Once
}

func newPipeListener() *pipeListener {
	return &pipeListener{ch: make(chan net.Conn), closed: make(chan struct{})}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.ch:
		return c, nil
	case <-l.closed:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.closed) })
	return nil
}

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

// fleet is an in-process worker fleet: one Worker per address served
// over pipe transports, with enough hooks to kill or drain a node
// mid-run.
type fleet struct {
	mu        sync.Mutex
	workers   map[string]*Worker
	listeners map[string]*pipeListener
	conns     map[string][]net.Conn // server-side conns per addr
}

func newFleet(t *testing.T, addrs []string, runner Runner, workersPer int) *fleet {
	t.Helper()
	f := &fleet{
		workers:   map[string]*Worker{},
		listeners: map[string]*pipeListener{},
		conns:     map[string][]net.Conn{},
	}
	for _, addr := range addrs {
		w := NewWorker(runner, workersPer)
		ln := newPipeListener()
		f.workers[addr] = w
		f.listeners[addr] = ln
		go w.Serve(ln)
		t.Cleanup(func() { ln.Close() })
	}
	return f
}

func (f *fleet) dial(ctx context.Context, addr string) (net.Conn, error) {
	f.mu.Lock()
	ln := f.listeners[addr]
	f.mu.Unlock()
	if ln == nil {
		return nil, fmt.Errorf("fleet: unknown addr %q", addr)
	}
	client, server := net.Pipe()
	select {
	case ln.ch <- server:
	case <-ln.closed:
		client.Close()
		server.Close()
		return nil, net.ErrClosed
	case <-ctx.Done():
		client.Close()
		server.Close()
		return nil, ctx.Err()
	}
	f.mu.Lock()
	f.conns[addr] = append(f.conns[addr], client)
	f.mu.Unlock()
	return client, nil
}

// kill simulates abrupt node death: stop accepting and sever every
// open connection of addr.
func (f *fleet) kill(addr string) {
	f.mu.Lock()
	ln, conns := f.listeners[addr], f.conns[addr]
	f.conns[addr] = nil
	f.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
}

// ---- test cells and runners ----

func testCells(n int) []Cell {
	cells := make([]Cell, n)
	for i := range cells {
		spec := Spec{Seed: 42, Method: "M", Rep: 0, Problem: fmt.Sprintf("p%03d", i)}
		cells[i] = Cell{Index: i, Key: sha256.Sum256([]byte(spec.Problem)), Spec: spec}
	}
	return cells
}

// pureRunner derives a deterministic outcome from the cell alone, so
// any executor on any node must produce identical results.
func pureRunner(delay time.Duration) Runner {
	return func(ctx context.Context, c Cell) (store.Outcome, error) {
		if delay > 0 {
			select {
			case <-time.After(delay):
			case <-ctx.Done():
				return store.Outcome{}, ctx.Err()
			}
		}
		return store.Outcome{
			Problem:  c.Spec.Problem,
			Grade:    uint8(c.Index % 5),
			TokensIn: uint64(c.Index) * 7,
		}, nil
	}
}

// resultSink collects Done callbacks and flags duplicates.
type resultSink struct {
	mu      sync.Mutex
	byIndex map[int]Result
	dups    int
}

func newSink() *resultSink { return &resultSink{byIndex: map[int]Result{}} }

func (s *resultSink) done(r Result) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.byIndex[r.Index]; ok {
		s.dups++
		return
	}
	s.byIndex[r.Index] = r
}

func (s *resultSink) get(i int) (Result, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.byIndex[i]
	return r, ok
}

func (s *resultSink) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.byIndex)
}

// checkComplete asserts every cell completed exactly once with the
// runner's deterministic outcome.
func checkComplete(t *testing.T, cells []Cell, sink *resultSink) {
	t.Helper()
	if sink.dups > 0 {
		t.Errorf("%d duplicate Done calls", sink.dups)
	}
	if sink.len() != len(cells) {
		t.Fatalf("completed %d of %d cells", sink.len(), len(cells))
	}
	want := pureRunner(0)
	for _, c := range cells {
		r, ok := sink.get(c.Index)
		if !ok {
			t.Fatalf("cell %d never completed", c.Index)
		}
		wo, _ := want(context.Background(), c)
		if r.Outcome != wo {
			t.Fatalf("cell %d outcome %+v, want %+v", c.Index, r.Outcome, wo)
		}
	}
}

func testRemoteOptions(f *fleet) RemoteOptions {
	return RemoteOptions{
		Window:     2,
		Straggler:  200 * time.Millisecond,
		ProbeEvery: 20 * time.Millisecond,
		MaxMissed:  3,
		Dial:       f.dial,
	}
}

// ---- protocol ----

func TestProtoRoundTrip(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()

	cells := testCells(3)
	go func() {
		writeFrame(client, runFrame(cells[2], false))
		writeFrame(client, frame{Op: opResult, Index: 2, OK: true, Outcome: &store.Outcome{Problem: "p002", Grade: 2}})
	}()

	f, err := readFrame(server)
	if err != nil {
		t.Fatalf("readFrame: %v", err)
	}
	got, err := cellFromFrame(f)
	if err != nil {
		t.Fatalf("cellFromFrame: %v", err)
	}
	if got.Index != cells[2].Index || got.Key != cells[2].Key || got.Spec != cells[2].Spec {
		t.Fatalf("round-trip cell %+v != %+v", got, cells[2])
	}

	f, err = readFrame(server)
	if err != nil {
		t.Fatalf("readFrame result: %v", err)
	}
	if f.Op != opResult || !f.OK || f.Outcome == nil || f.Outcome.Problem != "p002" {
		t.Fatalf("result frame mangled: %+v", f)
	}
}

func TestProtoRejectsVersionSkew(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	go func() {
		// Handcraft a frame with a wrong version.
		payload := []byte(`{"v":99,"op":"ping"}`)
		buf := make([]byte, 4+len(payload))
		buf[3] = byte(len(payload))
		copy(buf[4:], payload)
		client.Write(buf)
	}()
	if _, err := readFrame(server); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("version skew not rejected: %v", err)
	}
}

// ---- local executor ----

func TestLocalCompletesAllCells(t *testing.T) {
	for _, workers := range []int{1, 8} {
		cells := testCells(20)
		sink := newSink()
		err := Local().Execute(context.Background(), Job{
			Cells: cells, Workers: workers, Run: pureRunner(0), Done: sink.done,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		checkComplete(t, cells, sink)
	}
}

func TestLocalReportsEarliestError(t *testing.T) {
	cells := testCells(16)
	failing := map[int]bool{3: true, 7: true}
	run := func(ctx context.Context, c Cell) (store.Outcome, error) {
		time.Sleep(time.Duration(16-c.Index) * time.Millisecond) // later cells fail sooner
		if failing[c.Index] {
			return store.Outcome{}, fmt.Errorf("cell %d exploded", c.Index)
		}
		return pureRunner(0)(ctx, c)
	}
	err := Local().Execute(context.Background(), Job{Cells: cells, Workers: 8, Run: run, Done: func(Result) {}})
	if err == nil || !strings.Contains(err.Error(), "cell 3 exploded") {
		t.Fatalf("want earliest error (cell 3), got %v", err)
	}
}

func TestLocalCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := Local().Execute(ctx, Job{Cells: testCells(4), Workers: 2, Run: pureRunner(0), Done: func(Result) {}})
	if err != context.Canceled {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// ---- remote executor ----

func TestRemoteSingleNode(t *testing.T) {
	cells := testCells(24)
	f := newFleet(t, []string{"w1"}, pureRunner(0), 4)
	r, err := NewRemote([]string{"w1"}, testRemoteOptions(f))
	if err != nil {
		t.Fatal(err)
	}
	sink := newSink()
	if err := r.Execute(context.Background(), Job{Cells: cells, Workers: 4, Run: pureRunner(0), Done: sink.done}); err != nil {
		t.Fatalf("Execute: %v", err)
	}
	checkComplete(t, cells, sink)
	st := r.Stats()
	if st[0].Assigned != 24 || st[0].Completed != 24 {
		t.Fatalf("stats: %+v", st[0])
	}
}

// TestRemoteOversizedTracedResult pins that a traced cell whose phase
// samples outgrow maxFrameBytes still completes on a one-node fleet:
// the worker resends the result without its phases instead of
// dropping it, which would re-dispatch the cell to the same node
// forever.
func TestRemoteOversizedTracedResult(t *testing.T) {
	samples := make([]obs.PhaseSample, 20000)
	for i := range samples {
		samples[i] = obs.PhaseSample{Phase: obs.PhaseRun, Seq: i, ParentSeq: -1, StartUS: int64(i), DurUS: 1}
	}
	if b, _ := json.Marshal(samples); len(b) <= maxFrameBytes {
		t.Fatalf("samples encode to %d bytes, want > %d", len(b), maxFrameBytes)
	}
	runner := func(ctx context.Context, c Cell) (store.Outcome, error) {
		col := obs.FromContext(ctx)
		for _, s := range samples {
			col.Add(s)
		}
		return pureRunner(0)(ctx, c)
	}
	cells := testCells(3)
	f := newFleet(t, []string{"w1"}, runner, 2)
	opt := testRemoteOptions(f)
	// Encoding the samples is slow under the race detector; the node
	// must never be declared dead, or the local fallback would finish
	// the cells and hide a dropped result.
	opt.MaxMissed = 1000
	r, err := NewRemote([]string{"w1"}, opt)
	if err != nil {
		t.Fatal(err)
	}
	sink := newSink()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := r.Execute(ctx, Job{Cells: cells, Workers: 2, Run: runner, Done: sink.done, Trace: true}); err != nil {
		t.Fatalf("Execute: %v", err)
	}
	checkComplete(t, cells, sink)
	if st := r.Stats(); st[0].Completed != uint64(len(cells)) {
		t.Fatalf("stats: %+v, want every cell completed on the node", st[0])
	}
}

func TestRemoteFourNodes(t *testing.T) {
	cells := testCells(48)
	addrs := []string{"w1", "w2", "w3", "w4"}
	f := newFleet(t, addrs, pureRunner(time.Millisecond), 4)
	r, err := NewRemote(addrs, testRemoteOptions(f))
	if err != nil {
		t.Fatal(err)
	}
	sink := newSink()
	if err := r.Execute(context.Background(), Job{Cells: cells, Workers: 4, Run: pureRunner(0), Done: sink.done}); err != nil {
		t.Fatalf("Execute: %v", err)
	}
	checkComplete(t, cells, sink)

	var assigned, completed uint64
	spread := 0
	for _, st := range r.Stats() {
		assigned += st.Assigned
		completed += st.Completed
		if st.Assigned > 0 {
			spread++
		}
	}
	if assigned != 48 {
		t.Fatalf("assigned %d cells, want 48", assigned)
	}
	if completed != 48 {
		t.Fatalf("completed %d cells, want 48", completed)
	}
	if spread < 2 {
		t.Fatalf("consistent hashing placed all cells on %d node(s)", spread)
	}
}

// victimNode returns the address the ring loads most, so killing it
// mid-run is guaranteed to strand work.
func victimNode(addrs []string, cells []Cell) string {
	ring := buildRing(addrs)
	counts := make([]int, len(addrs))
	for _, c := range cells {
		h := cellHash(c)
		i := 0
		for ; i < len(ring); i++ {
			if ring[i].h >= h {
				break
			}
		}
		counts[ring[i%len(ring)].node]++
	}
	best := 0
	for i, n := range counts {
		if n > counts[best] {
			best = i
		}
	}
	return addrs[best]
}

func TestRemoteWorkerDeathRecovers(t *testing.T) {
	cells := testCells(24)
	addrs := []string{"w1", "w2"}
	victim := victimNode(addrs, cells)
	f := newFleet(t, addrs, pureRunner(10*time.Millisecond), 2)
	opt := testRemoteOptions(f)
	r, err := NewRemote(addrs, opt)
	if err != nil {
		t.Fatal(err)
	}
	sink := newSink()
	var killOnce sync.Once
	done := func(res Result) {
		sink.done(res)
		// First completion: the victim still holds most of its queue
		// (window 2, 10ms cells). Sever it abruptly.
		killOnce.Do(func() { go f.kill(victim) })
	}
	if err := r.Execute(context.Background(), Job{Cells: cells, Workers: 4, Run: pureRunner(0), Done: done}); err != nil {
		t.Fatalf("Execute: %v", err)
	}
	checkComplete(t, cells, sink)

	var requeued uint64
	for _, st := range r.Stats() {
		if st.Addr == victim {
			requeued = st.Requeued
			if st.Healthy {
				t.Errorf("victim %s still marked healthy", victim)
			}
		}
	}
	if requeued == 0 {
		t.Fatalf("victim %s death requeued no cells", victim)
	}
}

func TestRemoteDrainReassigns(t *testing.T) {
	cells := testCells(24)
	addrs := []string{"w1", "w2"}
	victim := victimNode(addrs, cells)
	f := newFleet(t, addrs, pureRunner(10*time.Millisecond), 2)
	r, err := NewRemote(addrs, testRemoteOptions(f))
	if err != nil {
		t.Fatal(err)
	}
	sink := newSink()
	var drainOnce sync.Once
	done := func(res Result) {
		sink.done(res)
		drainOnce.Do(func() {
			go func() {
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				defer cancel()
				f.workers[victim].Drain(ctx)
			}()
		})
	}
	if err := r.Execute(context.Background(), Job{Cells: cells, Workers: 4, Run: pureRunner(0), Done: done}); err != nil {
		t.Fatalf("Execute: %v", err)
	}
	checkComplete(t, cells, sink)
}

func TestRemoteAllNodesDeadFallsBackLocal(t *testing.T) {
	cells := testCells(12)
	opt := RemoteOptions{
		Dial: func(ctx context.Context, addr string) (net.Conn, error) {
			return nil, fmt.Errorf("no route to %s", addr)
		},
	}
	r, err := NewRemote([]string{"w1", "w2"}, opt)
	if err != nil {
		t.Fatal(err)
	}
	sink := newSink()
	if err := r.Execute(context.Background(), Job{Cells: cells, Workers: 3, Run: pureRunner(0), Done: sink.done}); err != nil {
		t.Fatalf("Execute: %v", err)
	}
	checkComplete(t, cells, sink)
	for _, c := range cells {
		r, _ := sink.get(c.Index)
		if r.Node != "" {
			t.Fatalf("fallback cell %d reports node %q", c.Index, r.Node)
		}
	}
}

func TestRemoteMidRunDeathOfOnlyNodeFallsBack(t *testing.T) {
	cells := testCells(12)
	f := newFleet(t, []string{"w1"}, pureRunner(10*time.Millisecond), 2)
	opt := testRemoteOptions(f)
	r, err := NewRemote([]string{"w1"}, opt)
	if err != nil {
		t.Fatal(err)
	}
	sink := newSink()
	var killOnce sync.Once
	done := func(res Result) {
		sink.done(res)
		killOnce.Do(func() { go f.kill("w1") })
	}
	if err := r.Execute(context.Background(), Job{Cells: cells, Workers: 4, Run: pureRunner(0), Done: done}); err != nil {
		t.Fatalf("Execute: %v", err)
	}
	checkComplete(t, cells, sink)
}

func TestRemoteReportsEarliestError(t *testing.T) {
	cells := testCells(16)
	failing := map[int]bool{3: true, 7: true}
	runner := func(ctx context.Context, c Cell) (store.Outcome, error) {
		if failing[c.Index] {
			return store.Outcome{}, fmt.Errorf("cell %d exploded", c.Index)
		}
		return pureRunner(0)(ctx, c)
	}
	f := newFleet(t, []string{"w1", "w2"}, runner, 2)
	r, err := NewRemote([]string{"w1", "w2"}, testRemoteOptions(f))
	if err != nil {
		t.Fatal(err)
	}
	err = r.Execute(context.Background(), Job{Cells: cells, Workers: 4, Run: runner, Done: func(Result) {}})
	if err == nil || !strings.Contains(err.Error(), "cell 3 exploded") {
		t.Fatalf("want earliest error (cell 3), got %v", err)
	}
}

func TestRemoteCancellation(t *testing.T) {
	cells := testCells(16)
	f := newFleet(t, []string{"w1"}, pureRunner(20*time.Millisecond), 2)
	r, err := NewRemote([]string{"w1"}, testRemoteOptions(f))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	err = r.Execute(ctx, Job{Cells: cells, Workers: 2, Run: pureRunner(0), Done: func(Result) {}})
	if err != context.Canceled {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

func TestRemoteStragglerSteal(t *testing.T) {
	cells := testCells(8)
	// One node answers instantly, the other sits on its cells far past
	// the straggler threshold.
	slowAddrs := map[string]bool{}
	addrs := []string{"w1", "w2"}
	victim := victimNode(addrs, cells)
	slowAddrs[victim] = true

	var runnerFor = func(slow bool) Runner {
		return func(ctx context.Context, c Cell) (store.Outcome, error) {
			if slow {
				select {
				case <-time.After(5 * time.Second):
				case <-ctx.Done():
					return store.Outcome{}, ctx.Err()
				}
			}
			return pureRunner(0)(ctx, c)
		}
	}
	f := &fleet{
		workers:   map[string]*Worker{},
		listeners: map[string]*pipeListener{},
		conns:     map[string][]net.Conn{},
	}
	for _, addr := range addrs {
		w := NewWorker(runnerFor(slowAddrs[addr]), 2)
		ln := newPipeListener()
		f.workers[addr] = w
		f.listeners[addr] = ln
		go w.Serve(ln)
		t.Cleanup(func() { ln.Close() })
	}
	opt := testRemoteOptions(f)
	opt.Straggler = 50 * time.Millisecond
	r, err := NewRemote(addrs, opt)
	if err != nil {
		t.Fatal(err)
	}
	sink := newSink()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := r.Execute(ctx, Job{Cells: cells, Workers: 4, Run: pureRunner(0), Done: sink.done}); err != nil {
		t.Fatalf("Execute: %v", err)
	}
	checkComplete(t, cells, sink)

	var stolen uint64
	for _, st := range r.Stats() {
		stolen += st.Stolen
	}
	if stolen == 0 {
		t.Fatal("no cells were stolen from the straggling node")
	}
	// Every cell the slow node owned must report Stolen.
	for _, c := range cells {
		res, _ := sink.get(c.Index)
		if res.Node == victim {
			t.Fatalf("cell %d completed on the 5s-straggler node", c.Index)
		}
	}
}
