package exec

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"net"
	"sort"
	"strconv"
	"sync"
	"time"

	"correctbench/internal/obs"
)

// Remote is the fleet executor: a coordinator that shards a job's
// cells across worker nodes (see Worker) by consistent-hashing each
// cell's content address onto a virtual-node ring, and keeps the
// job's exactly-once completion contract under any node failure:
//
//   - Backpressure: each node has a bounded in-flight window; cells
//     beyond it wait in the node's queue, so a slow node never
//     accumulates unbounded work.
//   - Health: nodes are probed with counter-based ping/pong — a node
//     that misses enough consecutive probes is declared dead. No
//     scheduling decision reads the wall clock.
//   - Work stealing: idle nodes steal queued cells from the most
//     loaded node, and a cell in flight longer than the straggler
//     threshold is speculatively re-dispatched to the least loaded
//     healthy peer. Cell outcomes are pure functions of their spec,
//     so duplicated execution is invisible: the first completion
//     wins and later duplicates are dropped.
//   - Reassignment: a dead or draining node's queued and in-flight
//     cells requeue onto the surviving ring. If the whole fleet is
//     gone the coordinator falls back to executing the remainder
//     in-process through Job.Run — a run degrades, it never loses
//     cells.
//
// The ring, queues, windows and steal scans all iterate nodes in
// sorted-address order; given the same fault schedule the coordinator
// makes the same decisions (and the event stream upstream is
// byte-identical regardless, because the ordered emitter re-sequences
// completions).
type Remote struct {
	peers []string // sorted worker addresses
	opt   RemoteOptions

	mu    sync.Mutex
	stats []NodeStats // parallel to peers, cumulative across jobs
}

// RemoteOptions tunes the coordinator. The zero value means: window
// 4, straggler threshold 2s, probe every 500ms, 3 missed probes kill
// a node, net.Dial over TCP.
type RemoteOptions struct {
	// Window bounds cells in flight per node (backpressure).
	Window int
	// Straggler is how long a dispatched cell may stay unanswered
	// before it is speculatively re-dispatched to another node.
	Straggler time.Duration
	// ProbeEvery is the health-probe cadence; MaxMissed consecutive
	// unanswered probes mark a node dead.
	ProbeEvery time.Duration
	MaxMissed  int
	// Dial connects to a worker address. Tests inject in-process
	// net.Pipe transports here; nil means TCP.
	Dial func(ctx context.Context, addr string) (net.Conn, error)
}

func (o *RemoteOptions) normalize() {
	if o.Window < 1 {
		o.Window = 4
	}
	if o.Straggler <= 0 {
		o.Straggler = 2 * time.Second
	}
	if o.ProbeEvery <= 0 {
		o.ProbeEvery = 500 * time.Millisecond
	}
	if o.MaxMissed < 1 {
		o.MaxMissed = 3
	}
	if o.Dial == nil {
		o.Dial = func(ctx context.Context, addr string) (net.Conn, error) {
			var d net.Dialer
			return d.DialContext(ctx, "tcp", addr)
		}
	}
}

// NodeStats is the cumulative per-node accounting of a Remote
// executor, for /metrics.
type NodeStats struct {
	Addr string `json:"addr"`
	// Healthy is the node's state as of the last job that touched it.
	Healthy bool `json:"healthy"`
	// Assigned counts cells the ring hashed to this node; Completed
	// counts results accepted from it; Stolen counts cells it took
	// over from a straggling, dead or draining peer; Requeued counts
	// cells moved off it after it died or drained.
	Assigned  uint64 `json:"assigned"`
	Completed uint64 `json:"completed"`
	Stolen    uint64 `json:"stolen"`
	Requeued  uint64 `json:"requeued"`
}

// NewRemote returns a coordinator executor over the given worker
// addresses. Connections are per-Execute: each job dials the fleet,
// runs, and disconnects, so an executor value carries no state but
// its options and counters.
func NewRemote(peers []string, opt RemoteOptions) (*Remote, error) {
	if len(peers) == 0 {
		return nil, errors.New("exec: remote executor needs at least one peer")
	}
	sorted := append([]string(nil), peers...)
	sort.Strings(sorted)
	for i := 1; i < len(sorted); i++ {
		if sorted[i] == sorted[i-1] {
			return nil, fmt.Errorf("exec: duplicate peer %q", sorted[i])
		}
	}
	opt.normalize()
	r := &Remote{peers: sorted, opt: opt, stats: make([]NodeStats, len(sorted))}
	for i, addr := range sorted {
		r.stats[i].Addr = addr
	}
	return r, nil
}

// Stats returns a copy of the cumulative per-node counters, in
// sorted-address order.
func (r *Remote) Stats() []NodeStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]NodeStats(nil), r.stats...)
}

// ---- consistent hash ring ----

// ringVnodes is how many virtual points each node contributes; enough
// that a 156-cell grid spreads evenly over a handful of nodes.
const ringVnodes = 64

type ringEntry struct {
	h    uint64
	node int
}

func buildRing(peers []string) []ringEntry {
	ring := make([]ringEntry, 0, len(peers)*ringVnodes)
	for i, addr := range peers {
		for v := 0; v < ringVnodes; v++ {
			h := fnv.New64a()
			h.Write([]byte(addr))
			h.Write([]byte("#"))
			h.Write([]byte(strconv.Itoa(v)))
			ring = append(ring, ringEntry{h: h.Sum64(), node: i})
		}
	}
	sort.Slice(ring, func(i, j int) bool {
		if ring[i].h != ring[j].h {
			return ring[i].h < ring[j].h
		}
		return ring[i].node < ring[j].node
	})
	return ring
}

// cellHash places a cell on the ring. The key is already a SHA-256,
// so its leading bytes are uniform.
func cellHash(c Cell) uint64 {
	var h uint64
	for i := 0; i < 8; i++ {
		h = h<<8 | uint64(c.Key[i])
	}
	return h
}

// ---- per-job run state ----

type nodeState int

const (
	nodeUp nodeState = iota
	nodeDead
)

type node struct {
	idx  int
	addr string
	conn net.Conn
	wmu  sync.Mutex // serializes frame writes

	state    nodeState
	queue    []int // cell positions awaiting dispatch, FIFO
	inflight int
	missed   int // consecutive unanswered probes
}

type cellPhase int

const (
	cellQueued cellPhase = iota
	cellInflight
)

type cellState struct {
	phase  cellPhase
	owner  int // node index currently responsible (-1: local fallback)
	stolen bool
	timer  *time.Timer
	start  time.Time // dispatch time, for Result.Duration metadata

	// Trace bookkeeping (populated only when job.Trace): when the cell
	// entered the coordinator's queues, and how long the last run-frame
	// write took (the dispatch phase).
	queuedAt   time.Time
	dispatchUS int64
}

type remoteRun struct {
	r   *Remote
	job Job

	ctx    context.Context
	cancel context.CancelFunc
	epoch  time.Time // trace time origin (zero when job.Trace is off)

	mu        sync.Mutex
	nodes     []*node
	ring      []ringEntry
	cells     []cellState
	posOf     map[int]int // canonical cell index -> slice position
	done      []bool
	remaining int
	errs      *errorCollector
	fallback  bool
	localBusy int // fallback cells currently executing

	finish   chan struct{}
	finished bool
	wg       sync.WaitGroup
}

// Execute runs one job across the fleet. It returns nil when every
// cell completed, ctx.Err() on cancellation, and otherwise the error
// of the canonically earliest failing cell among those the run
// executed (cells ordered before a failure are still driven to
// completion, so the observable event prefix matches a local run's).
func (r *Remote) Execute(ctx context.Context, job Job) error {
	if len(job.Cells) == 0 {
		return ctx.Err()
	}
	runCtx, cancel := context.WithCancel(ctx)
	rn := &remoteRun{
		r:         r,
		job:       job,
		ctx:       runCtx,
		cancel:    cancel,
		ring:      buildRing(r.peers),
		cells:     make([]cellState, len(job.Cells)),
		posOf:     make(map[int]int, len(job.Cells)),
		done:      make([]bool, len(job.Cells)),
		remaining: len(job.Cells),
		errs:      newErrorCollector(),
		finish:    make(chan struct{}),
	}
	if job.Trace {
		rn.epoch = job.Epoch
		if rn.epoch.IsZero() {
			rn.epoch = time.Now() //detlint:allow trace epoch is wall-clock metadata, excluded from the deterministic surface
		}
	}
	for pos, c := range job.Cells {
		rn.posOf[c.Index] = pos
		rn.cells[pos] = cellState{owner: -1, queuedAt: rn.epoch}
	}
	rn.nodes = make([]*node, len(r.peers))
	for i, addr := range r.peers {
		rn.nodes[i] = &node{idx: i, addr: addr, state: nodeDead}
	}

	// Dial the fleet concurrently; nodes that refuse start dead and
	// the ring walks past them.
	var dialWG sync.WaitGroup
	for _, n := range rn.nodes {
		dialWG.Add(1)
		go func(n *node) {
			defer dialWG.Done()
			conn, err := r.opt.Dial(runCtx, n.addr)
			if err != nil {
				return
			}
			n.conn = conn
			n.state = nodeUp
		}(n)
	}
	dialWG.Wait()

	rn.mu.Lock()
	anyUp := false
	for _, n := range rn.nodes {
		if n.state == nodeUp {
			anyUp = true
			rn.wg.Add(1)
			go rn.readLoop(n)
		}
		r.setHealthy(n.idx, n.state == nodeUp)
	}
	// Initial assignment: every cell onto its ring successor among the
	// nodes that dialed. Cell order is canonical, so each node's queue
	// preserves canonical relative order.
	if anyUp {
		for pos, c := range job.Cells {
			ni := rn.assignLocked(cellHash(c))
			rn.cells[pos].owner = ni
			rn.nodes[ni].queue = append(rn.nodes[ni].queue, pos)
			r.bumpAssigned(ni)
		}
		rn.dispatchLocked()
	} else {
		rn.startFallbackLocked()
	}
	rn.mu.Unlock()

	if anyUp {
		rn.wg.Add(1)
		go rn.probeLoop()
	}

	// Wait for completion or cancellation, then tear the run down:
	// cancel stops the prober and fallback workers, closing conns
	// stops the readers.
	select {
	case <-rn.finish:
	case <-runCtx.Done():
	}
	cancel()
	rn.mu.Lock()
	for _, n := range rn.nodes {
		if n.conn != nil {
			n.conn.Close()
		}
	}
	for pos := range rn.cells {
		if t := rn.cells[pos].timer; t != nil {
			t.Stop()
		}
	}
	rn.mu.Unlock()
	rn.wg.Wait()

	if err := ctx.Err(); err != nil {
		return err
	}
	if err := rn.errs.first(); err != nil {
		return err
	}
	if !rn.isFinished() {
		// runCtx died without a caller cancellation — cannot happen
		// with the cleanup above, but fail loudly rather than report a
		// partial run as complete.
		return errors.New("exec: remote run ended incomplete")
	}
	return nil
}

func (rn *remoteRun) isFinished() bool {
	rn.mu.Lock()
	defer rn.mu.Unlock()
	return rn.finished
}

// assignLocked walks the ring from h to the first healthy node.
// Caller must have verified at least one node is up.
func (rn *remoteRun) assignLocked(h uint64) int {
	i := sort.Search(len(rn.ring), func(i int) bool { return rn.ring[i].h >= h })
	for k := 0; k < len(rn.ring); k++ {
		e := rn.ring[(i+k)%len(rn.ring)]
		if rn.nodes[e.node].state == nodeUp {
			return e.node
		}
	}
	return -1
}

// minIndexCutoff returns the canonical index past which no new cell
// may be dispatched: unbounded normally, the earliest failing index
// after a failure (cells before it still run, matching the event
// prefix a sequential run would have produced before hitting the
// error).
func (rn *remoteRun) minIndexCutoff() int {
	if !rn.errs.failed() {
		return math.MaxInt
	}
	return rn.errs.minIndex()
}

// dispatchLocked fills every healthy node's in-flight window from its
// queue, then lets idle nodes steal from the most loaded queue. All
// scans are in node-index (sorted address) order.
func (rn *remoteRun) dispatchLocked() {
	cutoff := rn.minIndexCutoff()
	for {
		for _, n := range rn.nodes {
			if n.state != nodeUp {
				continue
			}
			for n.inflight < rn.r.opt.Window && len(n.queue) > 0 {
				pos := n.queue[0]
				n.queue = n.queue[1:]
				if rn.done[pos] || rn.job.Cells[pos].Index >= cutoff {
					continue
				}
				rn.sendCellLocked(n, pos)
			}
		}
		if !rn.stealLocked() {
			return
		}
	}
}

// stealLocked moves queued work from the most loaded node to idle
// healthy nodes; reports whether anything moved (so dispatch loops).
func (rn *remoteRun) stealLocked() bool {
	moved := false
	for _, thief := range rn.nodes {
		if thief.state != nodeUp || len(thief.queue) > 0 || thief.inflight >= rn.r.opt.Window {
			continue
		}
		// Victim: longest queue, lowest index on ties.
		var victim *node
		for _, v := range rn.nodes {
			if v.state != nodeUp || v == thief || len(v.queue) == 0 {
				continue
			}
			if victim == nil || len(v.queue) > len(victim.queue) {
				victim = v
			}
		}
		if victim == nil {
			continue
		}
		take := (len(victim.queue) + 1) / 2
		tail := victim.queue[len(victim.queue)-take:]
		victim.queue = victim.queue[:len(victim.queue)-take]
		for _, pos := range tail {
			rn.cells[pos].owner = thief.idx
			rn.cells[pos].stolen = true
			rn.r.bumpStolen(thief.idx)
			rn.r.bumpRequeued(victim.idx)
		}
		thief.queue = append(thief.queue, tail...)
		moved = true
	}
	return moved
}

// sendCellLocked dispatches one cell to a node: window accounting,
// straggler timer, run frame (written outside the lock by a goroutine
// so a blocked transport cannot wedge the scheduler).
func (rn *remoteRun) sendCellLocked(n *node, pos int) {
	st := &rn.cells[pos]
	st.phase = cellInflight
	st.owner = n.idx
	st.start = time.Now() //detlint:allow Result.Duration is wall-clock metadata, not a scheduling input
	if st.timer != nil {
		st.timer.Stop()
	}
	st.timer = time.AfterFunc(rn.r.opt.Straggler, func() { rn.straggle(pos) })
	n.inflight++
	cell := rn.job.Cells[pos]
	trace := rn.job.Trace
	rn.wg.Add(1)
	go func() {
		defer rn.wg.Done()
		err := rn.write(n, runFrame(cell, trace))
		if trace {
			// The dispatch phase: how long the run frame took to leave.
			// The result cannot arrive before the worker has read the
			// frame, but the read goroutine may still observe a stale
			// zero on an extreme race — metadata, not a contract.
			wrote := time.Now() //detlint:allow dispatch timing is wall-clock metadata, excluded from the deterministic surface
			rn.mu.Lock()
			rn.cells[pos].dispatchUS = wrote.Sub(rn.cells[pos].start).Microseconds()
			rn.mu.Unlock()
		}
		if err != nil {
			rn.nodeDown(n)
		}
	}()
}

func (rn *remoteRun) write(n *node, f frame) error {
	n.wmu.Lock()
	defer n.wmu.Unlock()
	if n.conn == nil {
		return errors.New("exec: node not connected")
	}
	return writeFrame(n.conn, f)
}

// straggle fires when a dispatched cell outlives the straggler
// threshold: speculatively re-dispatch it to the least loaded healthy
// peer. The original copy stays in flight — first completion wins.
func (rn *remoteRun) straggle(pos int) {
	rn.mu.Lock()
	defer rn.mu.Unlock()
	if rn.done[pos] || rn.ctx.Err() != nil {
		return
	}
	st := &rn.cells[pos]
	if st.phase != cellInflight {
		return // already requeued by a death/drain
	}
	if rn.job.Cells[pos].Index >= rn.minIndexCutoff() {
		return
	}
	var target *node
	for _, n := range rn.nodes {
		if n.state != nodeUp || n.idx == st.owner {
			continue
		}
		if target == nil || n.inflight+len(n.queue) < target.inflight+len(target.queue) {
			target = n
		}
	}
	if target == nil {
		// Nowhere to steal to; keep watching the original.
		if owner := st.owner; owner >= 0 && rn.nodes[owner].state == nodeUp {
			st.timer = time.AfterFunc(rn.r.opt.Straggler, func() { rn.straggle(pos) })
		}
		return
	}
	st.phase = cellQueued
	st.owner = target.idx
	st.stolen = true
	target.queue = append(target.queue, pos)
	rn.r.bumpStolen(target.idx)
	rn.dispatchLocked()
}

// readLoop consumes one node's frames until the connection dies.
func (rn *remoteRun) readLoop(n *node) {
	defer rn.wg.Done()
	for {
		f, err := readFrame(n.conn)
		if err != nil {
			if rn.ctx.Err() == nil {
				rn.nodeDown(n)
			}
			return
		}
		switch f.Op {
		case opResult:
			rn.handleResult(n, f)
		case opPong:
			rn.mu.Lock()
			n.missed = 0
			rn.mu.Unlock()
		case opDraining:
			// The worker is shutting down: requeue everything it holds
			// now instead of waiting for probes to time it out. Keep
			// reading — its in-flight cells may still deliver, and the
			// dedup gate makes a drained result racing its reassigned
			// duplicate harmless in either order.
			rn.nodeDown(n)
		}
	}
}

// handleResult accepts one finished cell. Duplicates (steal races,
// drained nodes finishing anyway) are dropped: outcomes are pure, so
// whichever copy lands first carries the same bytes.
func (rn *remoteRun) handleResult(n *node, f frame) {
	rn.mu.Lock()
	pos, known := rn.posOf[f.Index]
	if !known || rn.done[pos] {
		if n.inflight > 0 {
			n.inflight--
		}
		rn.dispatchLocked()
		rn.mu.Unlock()
		return
	}
	st := &rn.cells[pos]
	rn.done[pos] = true
	rn.remaining--
	if n.inflight > 0 {
		n.inflight--
	}
	if st.timer != nil {
		st.timer.Stop()
		st.timer = nil
	}
	var res Result
	deliver := false
	if f.OK && f.Outcome != nil {
		res = Result{
			Index:    f.Index,
			Outcome:  *f.Outcome,
			Duration: time.Since(st.start),
			Node:     n.addr,
			Stolen:   st.stolen || n.idx != rn.initialNode(pos),
		}
		if rn.job.Trace {
			res.Phases = rn.tracePhasesLocked(st, n, f.Phases, res.Duration)
		}
		deliver = true
		rn.r.bumpCompleted(n.idx)
	} else {
		msg := f.Error
		if msg == "" {
			msg = "worker returned no outcome"
		}
		rn.errs.record(f.Index, fmt.Errorf("exec: node %s: %s", n.addr, msg))
	}
	rn.dispatchLocked()
	rn.checkDoneLocked()
	rn.mu.Unlock()
	if deliver {
		rn.job.Done(res)
	}
}

// tracePhasesLocked assembles a remote cell's phase samples on the
// coordinator's timeline: queue_wait (assignment -> dispatch),
// dispatch (run-frame write) and net_roundtrip (dispatch -> result
// received) from coordinator bookkeeping, then the worker's own
// samples — whose offsets are relative to its execution start —
// rebased under the net_roundtrip span and labeled with the node
// address. Caller holds rn.mu.
func (rn *remoteRun) tracePhasesLocked(st *cellState, n *node, worker []obs.PhaseSample, roundtrip time.Duration) []obs.PhaseSample {
	dispatchStart := st.start.Sub(rn.epoch).Microseconds()
	phases := []obs.PhaseSample{
		{
			Phase: obs.PhaseQueueWait, Seq: 0, ParentSeq: -1,
			StartUS: st.queuedAt.Sub(rn.epoch).Microseconds(),
			DurUS:   st.start.Sub(st.queuedAt).Microseconds(),
		},
		{
			Phase: obs.PhaseDispatch, Seq: 1, ParentSeq: -1,
			StartUS: dispatchStart,
			DurUS:   st.dispatchUS,
		},
		{
			Phase: obs.PhaseRoundtrip, Seq: 2, ParentSeq: -1, Node: n.addr,
			StartUS: dispatchStart,
			DurUS:   roundtrip.Microseconds(),
		},
	}
	return append(phases, obs.Rebase(worker, 3, 2, dispatchStart, n.addr)...)
}

// initialNode recomputes where the ring would place a cell with every
// node healthy — the "home" node Stolen is measured against.
func (rn *remoteRun) initialNode(pos int) int {
	h := cellHash(rn.job.Cells[pos])
	i := sort.Search(len(rn.ring), func(i int) bool { return rn.ring[i].h >= h })
	return rn.ring[i%len(rn.ring)].node
}

// nodeDown transitions a node out of service and reassigns everything
// it held. Safe to call repeatedly.
func (rn *remoteRun) nodeDown(n *node) {
	rn.mu.Lock()
	defer rn.mu.Unlock()
	rn.nodeDownLocked(n)
}

func (rn *remoteRun) nodeDownLocked(n *node) {
	if n.state == nodeDead {
		return
	}
	n.state = nodeDead
	n.queue = nil
	n.inflight = 0
	rn.r.setHealthy(n.idx, false)

	anyUp := false
	for _, m := range rn.nodes {
		if m.state == nodeUp {
			anyUp = true
			break
		}
	}
	// Reassign every live cell the dead node owned — queued or in
	// flight — to its ring successor. Scanning the cells slice keeps
	// the order canonical.
	for pos := range rn.cells {
		st := &rn.cells[pos]
		if rn.done[pos] || st.owner != n.idx {
			continue
		}
		rn.r.bumpRequeued(n.idx)
		if !anyUp {
			st.phase = cellQueued
			st.owner = -1 // the local fallback will pick it up
			continue
		}
		ni := rn.assignLocked(cellHash(rn.job.Cells[pos]))
		st.phase = cellQueued
		st.owner = ni
		st.stolen = true
		rn.nodes[ni].queue = append(rn.nodes[ni].queue, pos)
		rn.r.bumpStolen(ni)
	}
	if anyUp {
		rn.dispatchLocked()
	} else {
		rn.startFallbackLocked()
	}
	rn.checkDoneLocked()
}

// probeLoop pings every healthy node each tick and kills nodes whose
// consecutive missed-pong counter crosses the limit. Death is decided
// by counting probe rounds, never by reading a clock.
func (rn *remoteRun) probeLoop() {
	defer rn.wg.Done()
	t := time.NewTicker(rn.r.opt.ProbeEvery)
	defer t.Stop()
	for {
		select {
		case <-rn.ctx.Done():
			return
		case <-t.C:
		}
		rn.mu.Lock()
		var lost []*node
		var ping []*node
		for _, n := range rn.nodes {
			if n.state != nodeUp {
				continue
			}
			n.missed++
			if n.missed > rn.r.opt.MaxMissed {
				lost = append(lost, n)
				continue
			}
			ping = append(ping, n)
		}
		for _, n := range lost {
			rn.nodeDownLocked(n)
		}
		rn.mu.Unlock()
		for _, n := range ping {
			n := n
			rn.wg.Add(1)
			go func() {
				defer rn.wg.Done()
				if err := rn.write(n, frame{Op: opPing}); err != nil {
					rn.nodeDown(n)
				}
			}()
		}
	}
}

// checkDoneLocked closes the finish gate when the run can make no
// further progress: every cell accounted, or a failure recorded and
// nothing left in flight anywhere.
func (rn *remoteRun) checkDoneLocked() {
	if rn.finished {
		return
	}
	if rn.remaining > 0 {
		if !rn.errs.failed() {
			return
		}
		inflight := rn.localBusy
		queued := 0
		cutoff := rn.minIndexCutoff()
		for _, n := range rn.nodes {
			if n.state != nodeUp {
				continue
			}
			inflight += n.inflight
			for _, pos := range n.queue {
				if !rn.done[pos] && rn.job.Cells[pos].Index < cutoff {
					queued++
				}
			}
		}
		if rn.fallback {
			// Cells the local fallback still owes (owner -1): they are
			// not in any node queue but must run before the error
			// returns, like the local pool's already-queued cells.
			for pos := range rn.cells {
				if !rn.done[pos] && rn.cells[pos].owner == -1 && rn.job.Cells[pos].Index < cutoff {
					queued++
				}
			}
		}
		if inflight > 0 || queued > 0 {
			return
		}
	}
	rn.finished = true
	close(rn.finish)
}

// ---- local fallback ----

// startFallbackLocked degrades the run to in-process execution when
// no healthy node remains: the remaining cells run through Job.Run on
// this process, exactly as the local pool would run them. Results
// still flow through the dedup gate — a drained node's late delivery
// and the fallback's own execution carry identical bytes, so either
// winning is fine.
func (rn *remoteRun) startFallbackLocked() {
	if rn.fallback {
		return
	}
	rn.fallback = true
	var pending []int
	for pos := range rn.cells {
		if !rn.done[pos] {
			rn.cells[pos].owner = -1
			rn.cells[pos].phase = cellQueued
			pending = append(pending, pos)
		}
	}
	if len(pending) == 0 {
		return
	}
	workers := rn.job.Workers
	if workers < 1 {
		workers = 1
	}
	if workers > len(pending) {
		workers = len(pending)
	}
	feed := make(chan int)
	for w := 0; w < workers; w++ {
		rn.wg.Add(1)
		go func() {
			defer rn.wg.Done()
			for pos := range feed {
				rn.runLocalCell(pos)
			}
		}()
	}
	rn.wg.Add(1)
	go func() {
		defer rn.wg.Done()
		defer close(feed)
		for _, pos := range pending {
			rn.mu.Lock()
			skip := rn.done[pos] || rn.job.Cells[pos].Index >= rn.minIndexCutoff()
			rn.mu.Unlock()
			if skip || rn.ctx.Err() != nil {
				continue
			}
			select {
			case feed <- pos:
			case <-rn.ctx.Done():
				return
			}
		}
	}()
}

func (rn *remoteRun) runLocalCell(pos int) {
	rn.mu.Lock()
	if rn.done[pos] {
		rn.mu.Unlock()
		return
	}
	rn.localBusy++
	rn.mu.Unlock()

	c := rn.job.Cells[pos]
	start := time.Now() //detlint:allow Result.Duration is wall-clock metadata, not a scheduling input
	ctx := rn.ctx
	var col *obs.Collector
	if rn.job.Trace {
		// Local fallback executes on the coordinator itself: record a
		// queue_wait from the cell's assignment to now, then collect the
		// cell's own phases directly on the coordinator timeline (no
		// rebase — same clock, same epoch).
		rn.mu.Lock()
		queuedAt := rn.cells[pos].queuedAt
		rn.mu.Unlock()
		col = obs.NewCollector(rn.epoch)
		col.Add(obs.PhaseSample{
			Phase: obs.PhaseQueueWait, Seq: 0, ParentSeq: -1,
			StartUS: queuedAt.Sub(rn.epoch).Microseconds(),
			DurUS:   start.Sub(queuedAt).Microseconds(),
		})
		ctx = obs.WithCollector(ctx, col)
	}
	o, err := rn.job.Run(ctx, c)

	rn.mu.Lock()
	rn.localBusy--
	if rn.done[pos] {
		rn.checkDoneLocked()
		rn.mu.Unlock()
		return
	}
	rn.done[pos] = true
	rn.remaining--
	deliver := false
	var res Result
	if err != nil {
		rn.errs.record(c.Index, err)
	} else {
		res = Result{Index: c.Index, Outcome: o, Duration: time.Since(start), Stolen: true, Phases: col.Samples()}
		deliver = true
	}
	rn.checkDoneLocked()
	rn.mu.Unlock()
	if deliver {
		rn.job.Done(res)
	}
}

// ---- cumulative stats ----

func (r *Remote) setHealthy(i int, up bool) {
	r.mu.Lock()
	r.stats[i].Healthy = up
	r.mu.Unlock()
}

func (r *Remote) bumpAssigned(i int) {
	r.mu.Lock()
	r.stats[i].Assigned++
	r.mu.Unlock()
}

func (r *Remote) bumpCompleted(i int) {
	r.mu.Lock()
	r.stats[i].Completed++
	r.mu.Unlock()
}

func (r *Remote) bumpStolen(i int) {
	r.mu.Lock()
	r.stats[i].Stolen++
	r.mu.Unlock()
}

func (r *Remote) bumpRequeued(i int) {
	r.mu.Lock()
	r.stats[i].Requeued++
	r.mu.Unlock()
}
