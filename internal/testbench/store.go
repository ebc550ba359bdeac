package testbench

import (
	"encoding/binary"
	"sync"

	"correctbench/internal/dataset"
	"correctbench/internal/sim"
	"correctbench/internal/verilog"
)

// A TraceStore is a content-keyed memo of what testbench runs derive
// from designs and stimulus, shared by every testbench that uses it —
// one per Algorithm-1 cell, so a cell never records a scenario twice
// on the same design. It holds:
//
//   - checker memos: (checker text, top) -> its one parse and design;
//   - one-design DUT sets, compiled once per design;
//   - scenario pieces: (unit, clocking, sampled outputs, one scenario's
//     drive list) -> that scenario's sample rows and each lane's first
//     error in it, as a raw (step, phase, err).
//
// A unit is what the recorder simulates as one: one design (a
// one-lane program) or one multi-lane batch program of a DUTSet. Every scenario starts from Reset, which
// equals a fresh instance, so a piece is a pure function of its key
// and serves any run over that scenario, whatever scenarios precede it,
// on either side and under any Scenario.Index: the "checker:"/"dut:"
// side and the index are put into an error text when a run reads it.
//
// Only complete pieces are stored: a run that stops no lane early (no
// earlyExit) simulates each scenario it misses on every lane of the
// unit, from a fresh state, and stores the pieces once the whole run
// has finished uncancelled. An early-exit run reads pieces but stores
// none. Nothing in a store is ever replaced or evicted; it lives as
// long as the testbenches and generator that hold it.
//
// The zero value is empty and ready to use. A TraceStore is safe for
// concurrent use; racing runs may record the same piece, and they
// record equal ones.
type TraceStore struct {
	mu       sync.Mutex
	checkers map[checkerKey]*checkerMemo
	singles  map[*sim.Design]*DUTSet
	pieces   map[pieceKey]*piece
}

type checkerKey struct{ src, top string }

// checker returns the memo of a checker text, made (and the text
// parsed, once) on first use.
func (s *TraceStore) checker(src, top string) *checkerMemo {
	k := checkerKey{src, top}
	s.mu.Lock()
	m := s.checkers[k]
	if m == nil {
		if s.checkers == nil {
			s.checkers = map[checkerKey]*checkerMemo{}
		}
		m = &checkerMemo{src: src, top: top}
		s.checkers[k] = m
	}
	s.mu.Unlock()
	m.parsed.Do(func() { m.file, m.parseErr = verilog.Parse(src) })
	return m
}

// single returns d as a one-design DUT set, compiled on first use.
// Racing callers may both compile; the first set stored wins.
func (s *TraceStore) single(d *sim.Design) *DUTSet {
	s.mu.Lock()
	set := s.singles[d]
	s.mu.Unlock()
	if set != nil {
		return set
	}
	set = NewDUTSet(d, []*sim.Design{d})
	s.mu.Lock()
	defer s.mu.Unlock()
	if old := s.singles[d]; old != nil {
		return old
	}
	if s.singles == nil {
		s.singles = map[*sim.Design]*DUTSet{}
	}
	s.singles[d] = set
	return set
}

// pieceKey identifies one scenario recorded on one unit.
type pieceKey struct {
	unit         any // *sim.Design or *sim.BatchProgram
	kind         dataset.Kind
	clock, reset string
	outs         string // the sampled output ports, NUL-separated
	drives       string // the scenario's drive list (scenarioKey)
}

// piece is one scenario of one unit: its sample rows, laid out as in
// a trace, and the first error of each lane that erred in it. A piece
// is immutable once stored.
type piece struct {
	scenarioTrace
	fails []pieceFail
}

// pieceFail is a lane's first error in a scenario, before a run gives
// it a side and a scenario index.
type pieceFail struct {
	lane, step, phase int
	err               error
}

func (s *TraceStore) piece(k pieceKey) *piece {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pieces[k]
}

// add stores a finished recording's pieces, keeping a piece already
// stored under the same key.
func (s *TraceStore) add(pcs map[pieceKey]*piece) {
	if len(pcs) == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pieces == nil {
		s.pieces = make(map[pieceKey]*piece, len(pcs))
	}
	for k, pc := range pcs { //detlint:allow inserts into a map; the order reaches nothing
		if _, ok := s.pieces[k]; !ok {
			s.pieces[k] = pc
		}
	}
}

// scenarioKey encodes a scenario's drive list: per step the number of
// inputs driven, then each input's name and value in drive order. The
// encoding is prefix-free, so equal keys mean equal drive lists; the
// scenario's Index and Name, which do not reach the simulator, are not
// part of it.
func scenarioKey(buf []byte, sc Scenario) ([]byte, string) {
	b := buf[:0]
	for _, st := range sc.Steps {
		names := st.SortedNames()
		b = binary.AppendUvarint(b, uint64(len(names)))
		for _, name := range names {
			b = binary.AppendUvarint(b, uint64(len(name)))
			b = append(b, name...)
			b = binary.AppendUvarint(b, st.Inputs[name])
		}
	}
	return b, string(b)
}
