// Package store is the content-addressed evaluation-cell store. An
// experiment cell — one (problem, method, rep) coordinate of the
// harness grid — is a pure function of its cell key (see
// harness.CellKey: derived seed, budgets, LLM and criterion names,
// dataset fingerprint, schema version), so its outcome can be cached
// and replayed instead of re-simulated. The store is what turns a
// repeated or resumed experiment from O(simulation) into O(lookup):
// a warm rerun of Table I replays every cell, and a job killed
// mid-experiment resumes with only the missing cells simulated.
//
// Two backends implement the one Store interface:
//
//   - Memory: a bounded LRU for a single process (NewMemory);
//   - Disk: a persistent directory of append-safe shard files, one
//     per problem, that survives crashes and restarts (Open).
//
// Both are safe for concurrent use by any number of jobs. Records on
// disk are CRC-protected and fsync'd; corrupt or torn records are
// skipped and counted rather than failing the open, and shards whose
// header carries an unknown schema version are ignored wholesale so
// stale layouts are never misread.
package store

import (
	"encoding/binary"
	"encoding/hex"
	"fmt"
)

// Key is the content address of one evaluation cell: a SHA-256 over
// every input the cell's outcome depends on. Equal keys mean "the
// simulation would produce byte-identical outcomes"; any input change
// (dataset edit, budget change, schema bump) changes the key, so
// stale values are unreachable rather than invalidated.
type Key [32]byte

// String returns the key in hex, the form storectl prints.
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// Outcome is the stored result of one evaluation cell. It mirrors
// harness.TaskOutcome field for field but stays free of internal
// package dependencies so the persistence layer has a frozen,
// self-contained schema (guarded by recordVersion on disk).
type Outcome struct {
	// Problem is the dataset problem name; it selects the on-disk
	// shard and double-checks a looked-up record against the cell that
	// requested it.
	Problem string
	Kind    uint8 // dataset.Kind
	Grade   uint8 // autoeval.Grade

	// CorrectBench-only trace bits.
	ValidatorIntervened bool
	CorrectorShaped     bool
	FinalValidated      bool
	Corrections         uint32
	Reboots             uint32

	TokensIn  uint64
	TokensOut uint64
}

// Stats is a point-in-time view of a store's counters. Hits and
// Misses count Get outcomes over the store's lifetime (all jobs
// sharing it); CorruptRecords and StaleShards count what the disk
// backend skipped while loading.
type Stats struct {
	// Backend is "memory" or "disk".
	Backend string `json:"backend"`
	// Entries is the number of distinct cell keys currently held.
	Entries int `json:"entries"`
	// Hits and Misses count Get calls that did / did not find a record.
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	// Puts counts records accepted; PutErrors counts failed appends
	// (disk faults) — a put error never fails the experiment, the cell
	// simply stays uncached.
	Puts      uint64 `json:"puts"`
	PutErrors uint64 `json:"put_errors,omitempty"`
	// Evictions counts LRU drops (memory backend only).
	Evictions uint64 `json:"evictions,omitempty"`
	// CorruptRecords counts records skipped while loading shards
	// (truncated tails, CRC mismatches); StaleShards counts whole
	// shard files ignored for carrying an unknown schema version.
	CorruptRecords int `json:"corrupt_records,omitempty"`
	StaleShards    int `json:"stale_shards,omitempty"`
	// Shards and Bytes describe the on-disk footprint (disk only).
	Shards int   `json:"shards,omitempty"`
	Bytes  int64 `json:"bytes,omitempty"`
	// Dir is the backing directory (disk only).
	Dir string `json:"dir,omitempty"`
}

// Store is the one interface both backends implement. All methods are
// safe for concurrent use; a Store may be shared by any number of
// jobs at once.
type Store interface {
	// Get looks a cell up by key. A miss is (zero, false).
	Get(Key) (Outcome, bool)
	// Put records a cell outcome. Re-putting an existing key is a
	// cheap no-op (cells are deterministic, so the value cannot
	// differ). Errors are disk faults; callers may treat them as
	// non-fatal — the store counts them in Stats.
	Put(Key, Outcome) error
	// Stats returns the store's live counters.
	Stats() Stats
	// Close flushes and releases the store. Get/Put after Close fail
	// softly (miss / error).
	Close() error
}

// ---- record encoding ----
//
// The binary outcome encoding is shared by the disk shards. Layout
// (little-endian):
//
//	u16 len(problem) | problem bytes | kind u8 | grade u8 | flags u8 |
//	u32 corrections | u32 reboots | u64 tokens_in | u64 tokens_out
//
// flags packs the three trace booleans (bit0 validator, bit1
// corrector, bit2 validated). Any layout change must bump
// recordVersion so old shards are ignored, not misread.

const (
	flagValidator = 1 << iota
	flagCorrector
	flagValidated
)

// maxProblemName bounds the encoded problem-name length; dataset
// names are short identifiers, so anything larger is corruption.
const maxProblemName = 1 << 10

func encodeOutcome(o Outcome) []byte {
	buf := make([]byte, 0, 2+len(o.Problem)+3+4+4+8+8)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(o.Problem)))
	buf = append(buf, o.Problem...)
	var flags uint8
	if o.ValidatorIntervened {
		flags |= flagValidator
	}
	if o.CorrectorShaped {
		flags |= flagCorrector
	}
	if o.FinalValidated {
		flags |= flagValidated
	}
	buf = append(buf, o.Kind, o.Grade, flags)
	buf = binary.LittleEndian.AppendUint32(buf, o.Corrections)
	buf = binary.LittleEndian.AppendUint32(buf, o.Reboots)
	buf = binary.LittleEndian.AppendUint64(buf, o.TokensIn)
	buf = binary.LittleEndian.AppendUint64(buf, o.TokensOut)
	return buf
}

func decodeOutcome(buf []byte) (Outcome, error) {
	var o Outcome
	if len(buf) < 2 {
		return o, fmt.Errorf("store: outcome record too short (%d bytes)", len(buf))
	}
	n := int(binary.LittleEndian.Uint16(buf))
	buf = buf[2:]
	if n > maxProblemName || len(buf) != n+3+4+4+8+8 {
		return o, fmt.Errorf("store: outcome record malformed (name %d bytes, %d remaining)", n, len(buf))
	}
	o.Problem = string(buf[:n])
	buf = buf[n:]
	o.Kind, o.Grade = buf[0], buf[1]
	flags := buf[2]
	o.ValidatorIntervened = flags&flagValidator != 0
	o.CorrectorShaped = flags&flagCorrector != 0
	o.FinalValidated = flags&flagValidated != 0
	buf = buf[3:]
	o.Corrections = binary.LittleEndian.Uint32(buf)
	o.Reboots = binary.LittleEndian.Uint32(buf[4:])
	o.TokensIn = binary.LittleEndian.Uint64(buf[8:])
	o.TokensOut = binary.LittleEndian.Uint64(buf[16:])
	return o, nil
}
