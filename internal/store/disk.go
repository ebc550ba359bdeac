package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Disk file format. A store directory holds one shard file per
// problem (append-only, *.shard). Each shard starts with a fixed
// header and is followed by length-prefixed, CRC-protected records:
//
//	header: "CBST" magic | u16 shard version | u16 reserved
//	record: u32 n | n payload bytes | u32 crc32(payload)
//	payload: 32-byte cell key | encoded Outcome (store.go)
//
// Records are fsync'd as written, so a crash can tear at most the
// record being appended; the torn tail is skipped (and counted) on
// the next open. A shard whose header version is not shardVersion is
// ignored wholesale — bumping the version retires old layouts without
// risking misreads — and `storectl gc` deletes such shards.
const (
	shardMagic   = "CBST"
	shardVersion = 1
	shardSuffix  = ".shard"
	headerSize   = 8
	// maxRecordSize bounds a record's payload; anything larger is a
	// corrupt length prefix, not data.
	maxRecordSize = keySize + 2 + maxProblemName + 64
	keySize       = 32
)

var errClosed = errors.New("store: closed")

// Disk is the persistent Store backend: a directory of per-problem
// shard files with the full index held in memory (bitcask-style), so
// Get never touches the disk and Put is one append. Open loads every
// shard up front; corrupt records and stale-version shards are
// skipped and counted, never fatal.
type Disk struct {
	dir string

	mu     sync.Mutex
	index  map[Key]Outcome
	files  map[string]*os.File // shard basename -> append handle
	dead   map[string]bool     // shards retired after an unrecoverable append error
	stats  Stats
	closed bool
}

// Open opens (creating if needed) a disk store rooted at dir and
// loads every shard into the in-memory index.
func Open(dir string) (*Disk, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	d := &Disk{
		dir:   dir,
		index: map[Key]Outcome{},
		files: map[string]*os.File{},
	}
	names, err := shardNames(dir)
	if err != nil {
		return nil, err
	}
	for _, name := range names {
		path := filepath.Join(dir, name)
		info, err := os.Stat(path)
		if err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
		recs, rep, err := loadShard(path)
		if err != nil {
			return nil, err
		}
		if rep.Stale {
			d.stats.StaleShards++
			continue
		}
		d.stats.Shards++
		d.stats.Bytes += info.Size()
		d.stats.CorruptRecords += rep.Corrupt
		for _, r := range recs {
			d.index[r.key] = r.val
		}
	}
	return d, nil
}

// Dir returns the store's backing directory.
func (d *Disk) Dir() string { return d.dir }

// Get implements Store.
func (d *Disk) Get(k Key) (Outcome, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	o, ok := d.index[k]
	if !ok || d.closed {
		d.stats.Misses++
		return Outcome{}, false
	}
	d.stats.Hits++
	return o, true
}

// Put implements Store: one record appended (and fsync'd) to the
// problem's shard. Re-putting a known key is a no-op, so concurrent
// jobs replaying the same grid never grow the shards.
func (d *Disk) Put(k Key, o Outcome) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		d.stats.PutErrors++
		return errClosed
	}
	if _, ok := d.index[k]; ok {
		return nil
	}
	if err := d.appendLocked(k, o); err != nil {
		d.stats.PutErrors++
		return fmt.Errorf("store: %w", err)
	}
	d.index[k] = o
	d.stats.Puts++
	return nil
}

func (d *Disk) appendLocked(k Key, o Outcome) error {
	name := shardFile(o.Problem)
	if d.dead[name] {
		return fmt.Errorf("shard %s retired after a failed append", name)
	}
	f, ok := d.files[name]
	if !ok {
		var err error
		f, err = d.openShardLocked(name)
		if err != nil {
			return err
		}
		d.files[name] = f
	}
	info, err := f.Stat()
	if err != nil {
		return err
	}
	end := info.Size()
	rec := encodeRecord(k, o)
	if _, err := f.Write(rec); err != nil {
		// A partial write (ENOSPC, I/O error) leaves torn bytes that
		// would shadow every later append on the next load. Roll the
		// shard back to its pre-append length; if even that fails,
		// retire the handle so no acknowledged record can ever land
		// after the tear (the tail is then skipped-and-counted on the
		// next open, costing only this never-acknowledged cell).
		d.retireOnError(name, f, end)
		return err
	}
	if err := f.Sync(); err != nil {
		d.retireOnError(name, f, end)
		return err
	}
	d.stats.Bytes += int64(len(rec))
	return nil
}

// retireOnError restores a shard to its pre-append state after a
// failed write/sync, or failing that, stops appending to it for the
// rest of the process. Callers hold d.mu.
func (d *Disk) retireOnError(name string, f *os.File, end int64) {
	if err := f.Truncate(end); err == nil {
		return
	}
	f.Close()
	delete(d.files, name)
	if d.dead == nil {
		d.dead = map[string]bool{}
	}
	d.dead[name] = true
}

// openShardLocked opens a shard for appending, writing (and syncing)
// the versioned header when the file is new. A non-empty file whose
// header is stale or foreign is rotated aside first: appending behind
// a header the loader skips would make every new record silently
// unreachable on the next open.
func (d *Disk) openShardLocked(name string) (*os.File, error) {
	path := filepath.Join(d.dir, name)
	if err := d.rotateStaleLocked(path); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if info.Size() == 0 {
		if _, err := f.Write(shardHeader()); err != nil {
			f.Close()
			return nil, err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, err
		}
		// The new file's directory entry must be durable too, or a
		// power loss could drop the whole fsync'd shard.
		if err := syncDir(d.dir); err != nil {
			f.Close()
			return nil, err
		}
		d.stats.Shards++
		d.stats.Bytes += headerSize
	}
	return f, nil
}

// syncDir fsyncs a directory, making renames and newly created files
// inside it durable.
func syncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// rotateStaleLocked moves an existing shard file aside when its
// header is not the current layout (stale schema version, foreign or
// torn header). The file keeps its bytes under "<name>.staleN" —
// outside the *.shard pattern, so loads never see it and `storectl
// gc` deletes it — and the caller starts a fresh, current-version
// shard in its place.
func (d *Disk) rotateStaleLocked(path string) error {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	hdr := make([]byte, headerSize)
	n, _ := io.ReadFull(f, hdr)
	f.Close()
	if n == 0 {
		return nil // empty file: the caller writes a fresh header
	}
	if n == headerSize && string(hdr[:4]) == shardMagic &&
		binary.LittleEndian.Uint16(hdr[4:6]) == shardVersion {
		return nil
	}
	for i := 0; ; i++ {
		alt := fmt.Sprintf("%s.stale%d", path, i)
		if _, err := os.Stat(alt); os.IsNotExist(err) {
			// Already counted as stale at Open; the rename just parks it.
			return os.Rename(path, alt)
		} else if err != nil {
			return err
		}
	}
}

// Stats implements Store.
func (d *Disk) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	s := d.stats
	s.Backend = "disk"
	s.Entries = len(d.index)
	s.Dir = d.dir
	return s
}

// Close implements Store: flushes and closes every shard handle.
func (d *Disk) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	d.closed = true
	var first error
	// Sorted iteration, so which error surfaces as "first" on a
	// multi-shard failure does not depend on map order.
	names := make([]string, 0, len(d.files))
	for name := range d.files {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f := d.files[name]
		if err := f.Sync(); err != nil && first == nil {
			first = err
		}
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
	}
	d.files = map[string]*os.File{}
	return first
}

// encodeRecord frames one cell as its on-disk record — the single
// definition of the length-prefix/payload/CRC layout, shared by the
// append path and the compactor so the two can never skew. The CRC
// covers the length prefix as well as the payload, so a record is
// only ever accepted with an intact boundary — a corrupted prefix can
// cost the rest of the shard's tail (skipped and counted, then
// re-simulated) but can never cause a misread.
func encodeRecord(k Key, o Outcome) []byte {
	payload := make([]byte, 0, keySize+64)
	payload = append(payload, k[:]...)
	payload = append(payload, encodeOutcome(o)...)
	rec := make([]byte, 0, 8+len(payload))
	rec = binary.LittleEndian.AppendUint32(rec, uint32(len(payload)))
	rec = append(rec, payload...)
	rec = binary.LittleEndian.AppendUint32(rec, crc32.ChecksumIEEE(rec))
	return rec
}

// ---- shard reading (shared by Open, Inspect and Compact) ----

type record struct {
	key Key
	val Outcome
}

// ShardReport describes one shard file as seen by Inspect (and by
// Open, which aggregates the same numbers into Stats).
type ShardReport struct {
	File string `json:"file"`
	// Problem is the shard's problem name as recovered from its
	// records ("" when empty or stale).
	Problem string `json:"problem,omitempty"`
	Version uint16 `json:"version"`
	// Stale marks a shard whose header version is not the current
	// shardVersion; its contents are never read.
	Stale bool `json:"stale,omitempty"`
	// Entries counts distinct keys, Records total decodable records
	// (Records > Entries means duplicate appends, reclaimable by gc).
	Entries int `json:"entries"`
	Records int `json:"records"`
	// Corrupt counts skipped records: CRC mismatches and the torn
	// tail a crash can leave.
	Corrupt int   `json:"corrupt,omitempty"`
	Bytes   int64 `json:"bytes"`
}

// loadShard reads one shard file. It returns the decodable records in
// append order (callers dedup last-wins) and a report of what was
// skipped; only I/O and header-level problems are errors.
func loadShard(path string) ([]record, ShardReport, error) {
	rep := ShardReport{File: filepath.Base(path)}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, rep, fmt.Errorf("store: %w", err)
	}
	rep.Bytes = int64(len(data))
	if len(data) < headerSize || string(data[:4]) != shardMagic {
		// Not a shard we wrote (or a header torn mid-create): treat as
		// stale so it is ignored, counted, and gc-able.
		rep.Stale = true
		return nil, rep, nil
	}
	rep.Version = binary.LittleEndian.Uint16(data[4:6])
	if rep.Version != shardVersion {
		rep.Stale = true
		return nil, rep, nil
	}
	var recs []record
	buf := data[headerSize:]
	for len(buf) > 0 {
		if len(buf) < 4 {
			rep.Corrupt++ // torn length prefix
			break
		}
		n := int(binary.LittleEndian.Uint32(buf))
		if n < keySize || n > maxRecordSize {
			// The length itself is garbage: record boundaries are lost
			// from here on, count the remainder as one corrupt region.
			rep.Corrupt++
			break
		}
		if len(buf) < 4+n+4 {
			rep.Corrupt++ // torn record (crash mid-append)
			break
		}
		payload := buf[4 : 4+n]
		sum := binary.LittleEndian.Uint32(buf[4+n:])
		framed := buf[:4+n]
		buf = buf[4+n+4:]
		if crc32.ChecksumIEEE(framed) != sum {
			// Bit rot somewhere in the record. If the flip was in the
			// payload the boundary is intact and later records read
			// fine; if it was in the length prefix the scan continues
			// at a garbage offset and ends at the next framing check —
			// tail skipped and counted, never misread (acceptance
			// requires the CRC over prefix+payload to hold).
			rep.Corrupt++
			continue
		}
		var r record
		copy(r.key[:], payload[:keySize])
		o, err := decodeOutcome(payload[keySize:])
		if err != nil {
			rep.Corrupt++
			continue
		}
		r.val = o
		recs = append(recs, r)
		rep.Records++
		if rep.Problem == "" {
			rep.Problem = o.Problem
		}
	}
	seen := map[Key]bool{}
	for _, r := range recs {
		if !seen[r.key] {
			seen[r.key] = true
		}
	}
	rep.Entries = len(seen)
	return recs, rep, nil
}

func shardHeader() []byte {
	h := make([]byte, 0, headerSize)
	h = append(h, shardMagic...)
	h = binary.LittleEndian.AppendUint16(h, shardVersion)
	h = binary.LittleEndian.AppendUint16(h, 0)
	return h
}

func shardNames(dir string) ([]string, error) {
	dirents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var names []string
	for _, e := range dirents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), shardSuffix) {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

// shardFile maps a problem name to its shard file name. Dataset names
// are short identifiers already; anything unexpected is replaced so
// the name stays a safe path component (collisions are harmless —
// records are keyed by hash, a shared shard just mixes problems).
func shardFile(problem string) string {
	var b strings.Builder
	for _, r := range problem {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == '-', r == '.':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	if b.Len() == 0 {
		b.WriteString("_unnamed")
	}
	return b.String() + shardSuffix
}

// ---- storectl operations ----

// Inspect reads every shard in dir without opening a live store and
// reports per-shard health: entries, duplicate records, corrupt
// regions, stale versions. It never modifies anything.
func Inspect(dir string) ([]ShardReport, error) {
	names, err := shardNames(dir)
	if err != nil {
		return nil, err
	}
	var out []ShardReport
	for _, name := range names {
		_, rep, err := loadShard(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		out = append(out, rep)
	}
	return out, nil
}

// CompactResult summarizes a Compact run.
type CompactResult struct {
	Shards             int   `json:"shards"`
	StaleShardsRemoved int   `json:"stale_shards_removed"`
	DroppedCorrupt     int   `json:"dropped_corrupt"`
	DroppedDuplicates  int   `json:"dropped_duplicates"`
	BytesBefore        int64 `json:"bytes_before"`
	BytesAfter         int64 `json:"bytes_after"`
}

// Compact garbage-collects a store directory: every healthy shard is
// rewritten with exactly one record per key (dropping duplicate
// appends and corrupt regions), and stale-version shards are deleted.
// The rewrite goes through a temp file and an atomic rename, so a
// crash mid-compact leaves either the old or the new shard, never a
// mix. The directory must not have a live writer during compaction.
func Compact(dir string) (CompactResult, error) {
	var res CompactResult
	names, err := shardNames(dir)
	if err != nil {
		return res, err
	}
	for _, name := range names {
		path := filepath.Join(dir, name)
		recs, rep, err := loadShard(path)
		if err != nil {
			return res, err
		}
		res.BytesBefore += rep.Bytes
		if rep.Stale {
			if err := os.Remove(path); err != nil {
				return res, fmt.Errorf("store: %w", err)
			}
			res.StaleShardsRemoved++
			continue
		}
		res.Shards++
		res.DroppedCorrupt += rep.Corrupt
		// Last write wins, preserving first-seen order for a stable
		// rewritten layout.
		order := make([]Key, 0, len(recs))
		live := map[Key]Outcome{}
		for _, r := range recs {
			if _, ok := live[r.key]; !ok {
				order = append(order, r.key)
			} else {
				res.DroppedDuplicates++
			}
			live[r.key] = r.val
		}
		n, err := rewriteShard(path, order, live)
		if err != nil {
			return res, err
		}
		res.BytesAfter += n
	}
	// Also sweep debris that only this collector can reclaim: shards a
	// live writer parked aside on finding a stale header
	// ("<name>.shard.staleN") and temp files a previous Compact left
	// behind when it was killed before its rename
	// ("<name>.shard.tmpNNN"). Both live outside the *.shard pattern,
	// so loads never see them.
	dirents, err := os.ReadDir(dir)
	if err != nil {
		return res, fmt.Errorf("store: %w", err)
	}
	for _, e := range dirents {
		name := e.Name()
		if e.IsDir() ||
			!(strings.Contains(name, shardSuffix+".stale") || strings.Contains(name, shardSuffix+".tmp")) {
			continue
		}
		if err := os.Remove(filepath.Join(dir, name)); err != nil {
			return res, fmt.Errorf("store: %w", err)
		}
		res.StaleShardsRemoved++
	}
	return res, nil
}

func rewriteShard(path string, order []Key, live map[Key]Outcome) (int64, error) {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return 0, fmt.Errorf("store: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after the rename
	w := func(b []byte) error {
		_, err := tmp.Write(b)
		return err
	}
	if err := w(shardHeader()); err != nil {
		tmp.Close()
		return 0, fmt.Errorf("store: %w", err)
	}
	for _, k := range order {
		if err := w(encodeRecord(k, live[k])); err != nil {
			tmp.Close()
			return 0, fmt.Errorf("store: %w", err)
		}
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return 0, fmt.Errorf("store: %w", err)
	}
	size, err := tmp.Seek(0, io.SeekCurrent)
	if err != nil {
		tmp.Close()
		return 0, fmt.Errorf("store: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return 0, fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return 0, fmt.Errorf("store: %w", err)
	}
	if err := syncDir(filepath.Dir(path)); err != nil {
		return 0, fmt.Errorf("store: %w", err)
	}
	return size, nil
}
