package exec

import (
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"

	"correctbench/internal/obs"
	"correctbench/internal/store"
)

// ---- wire protocol ----
//
// Coordinator and worker speak length-prefixed JSON frames over a
// plain TCP connection (stdlib only): a 4-byte big-endian payload
// length followed by one JSON object. Every frame carries an "op"
// tag; requests and responses are correlated by the cell index (runs)
// or implicitly (ping/pong). The framing exists so a fault injector —
// or a real flaky network — can drop, delay or truncate *whole
// messages* and the reader always either gets a complete frame or a
// clean error, never a half-parsed one.
//
// Ops, coordinator → worker:
//
//	run   {op, index, key, spec}   execute one cell
//	ping  {op}                     health probe
//
// Ops, worker → coordinator:
//
//	result   {op, index, ok, outcome|error}  one finished cell
//	pong     {op, active}                    probe answer + load
//	draining {op}                            the worker is shutting
//	         down: reassign its queued and in-flight cells now
//	         instead of waiting for them to time out
//
// The protocol is versioned by protoVersion, exchanged implicitly:
// every frame carries "v" and a mismatch is a hard connection error —
// a mixed-version fleet must fail loudly, not subtly skew results.
// (Cell-level version skew — same protocol, different simulator — is
// caught by the worker re-deriving the cell key and refusing a
// mismatch.)

const protoVersion = 1

// maxFrameBytes bounds a frame payload; anything larger is a corrupt
// length prefix, not a real message (specs and outcomes are tiny —
// only a traced result's phase samples can outgrow it, see
// Worker.send).
const maxFrameBytes = 1 << 20

// errFrameTooLarge is writeFrame's refusal of a payload over
// maxFrameBytes; nothing has been written when it is returned.
var errFrameTooLarge = errors.New("exec: frame too large")

// frame is the one wire message shape; which fields are set depends
// on Op.
type frame struct {
	V  int    `json:"v"`
	Op string `json:"op"`

	// run / result
	Index int    `json:"index,omitempty"`
	Key   string `json:"key,omitempty"` // hex cell key (run)
	Spec  *Spec  `json:"spec,omitempty"`

	OK      bool           `json:"ok,omitempty"`
	Outcome *store.Outcome `json:"outcome,omitempty"`
	Error   string         `json:"error,omitempty"`

	// Trace (run) asks the worker to time the cell's phases; Phases
	// (result) carries them back, with offsets relative to the
	// worker's own execution start — the coordinator rebases them onto
	// its timeline. Both fields are additive and omitempty, so mixed
	// deployments within protoVersion 1 interoperate: an older worker
	// ignores the unknown trace field and an older coordinator ignores
	// the phases it never asked for.
	Trace  bool              `json:"trace,omitempty"`
	Phases []obs.PhaseSample `json:"phases,omitempty"`

	// pong
	Active int `json:"active,omitempty"`
}

// Frame ops.
const (
	opRun      = "run"
	opResult   = "result"
	opPing     = "ping"
	opPong     = "pong"
	opDraining = "draining"
)

// writeFrame encodes and writes one frame as a single Write call, so
// connection-level fault injectors (and TCP itself under small
// frames) see whole messages.
func writeFrame(c net.Conn, f frame) error {
	f.V = protoVersion
	payload, err := json.Marshal(f)
	if err != nil {
		return fmt.Errorf("exec: marshal frame: %w", err)
	}
	if len(payload) > maxFrameBytes {
		return fmt.Errorf("%w (%d bytes)", errFrameTooLarge, len(payload))
	}
	buf := make([]byte, 4+len(payload))
	binary.BigEndian.PutUint32(buf, uint32(len(payload)))
	copy(buf[4:], payload)
	_, err = c.Write(buf)
	return err
}

// readFrame reads one length-prefixed frame and verifies the protocol
// version.
func readFrame(r io.Reader) (frame, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return frame{}, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 || n > maxFrameBytes {
		return frame{}, fmt.Errorf("exec: bad frame length %d", n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return frame{}, err
	}
	var f frame
	if err := json.Unmarshal(payload, &f); err != nil {
		return frame{}, fmt.Errorf("exec: bad frame: %w", err)
	}
	if f.V != protoVersion {
		return frame{}, fmt.Errorf("exec: protocol version %d, want %d (mixed-version fleet)", f.V, protoVersion)
	}
	return f, nil
}

// runFrame builds the run request for a cell.
func runFrame(c Cell, trace bool) frame {
	return frame{Op: opRun, Index: c.Index, Key: c.Key.String(), Spec: &c.Spec, Trace: trace}
}

// cellFromFrame rebuilds the cell of a run request.
func cellFromFrame(f frame) (Cell, error) {
	if f.Spec == nil {
		return Cell{}, fmt.Errorf("exec: run frame without spec")
	}
	raw, err := hex.DecodeString(f.Key)
	if err != nil || len(raw) != len(store.Key{}) {
		return Cell{}, fmt.Errorf("exec: run frame with bad key %q", f.Key)
	}
	c := Cell{Index: f.Index, Spec: *f.Spec}
	copy(c.Key[:], raw)
	return c, nil
}
