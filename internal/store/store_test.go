package store

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func testKey(i int) Key {
	return Key(sha256.Sum256([]byte(fmt.Sprintf("key-%d", i))))
}

func testOutcome(i int) Outcome {
	return Outcome{
		Problem:             fmt.Sprintf("prob%d", i%4),
		Kind:                uint8(i % 2),
		Grade:               uint8(i % 4),
		ValidatorIntervened: i%2 == 0,
		CorrectorShaped:     i%3 == 0,
		FinalValidated:      i%5 == 0,
		Corrections:         uint32(i),
		Reboots:             uint32(i * 2),
		TokensIn:            uint64(i * 100),
		TokensOut:           uint64(i * 10),
	}
}

func TestOutcomeEncodingRoundTrip(t *testing.T) {
	for i := 0; i < 16; i++ {
		o := testOutcome(i)
		back, err := decodeOutcome(encodeOutcome(o))
		if err != nil {
			t.Fatalf("decode %d: %v", i, err)
		}
		if back != o {
			t.Fatalf("round trip %d: got %+v want %+v", i, back, o)
		}
	}
	if _, err := decodeOutcome([]byte{1}); err == nil {
		t.Error("short buffer decoded")
	}
	if _, err := decodeOutcome(append(encodeOutcome(testOutcome(1)), 0)); err == nil {
		t.Error("oversized buffer decoded")
	}
}

func TestMemoryLRU(t *testing.T) {
	m := NewMemory(3)
	for i := 0; i < 5; i++ {
		if err := m.Put(testKey(i), testOutcome(i)); err != nil {
			t.Fatal(err)
		}
	}
	// 0 and 1 evicted, 2..4 present.
	for i := 0; i < 2; i++ {
		if _, ok := m.Get(testKey(i)); ok {
			t.Errorf("key %d survived eviction", i)
		}
	}
	for i := 2; i < 5; i++ {
		o, ok := m.Get(testKey(i))
		if !ok || o != testOutcome(i) {
			t.Errorf("key %d: ok=%v", i, ok)
		}
	}
	// Touching 2 makes 3 the eviction victim.
	m.Get(testKey(2))
	m.Put(testKey(9), testOutcome(9))
	if _, ok := m.Get(testKey(3)); ok {
		t.Error("LRU order ignored recency")
	}
	if _, ok := m.Get(testKey(2)); !ok {
		t.Error("recently used entry evicted")
	}
	s := m.Stats()
	if s.Backend != "memory" || s.Entries != 3 || s.Evictions != 3 {
		t.Errorf("stats = %+v", s)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Get(testKey(2)); ok {
		t.Error("Get after Close hit")
	}
	if err := m.Put(testKey(50), testOutcome(0)); err == nil {
		t.Error("Put after Close accepted")
	}
}

func TestDiskRoundTripAndReopen(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	const n = 12
	for i := 0; i < n; i++ {
		if err := d.Put(testKey(i), testOutcome(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Duplicate puts are no-ops: no growth.
	bytesBefore := d.Stats().Bytes
	for i := 0; i < n; i++ {
		if err := d.Put(testKey(i), testOutcome(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := d.Stats().Bytes; got != bytesBefore {
		t.Errorf("duplicate puts grew the store: %d -> %d", bytesBefore, got)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	s := d2.Stats()
	if s.Entries != n {
		t.Fatalf("reopened entries = %d, want %d", s.Entries, n)
	}
	if s.Shards != 4 { // problems hash to 4 shard files (i%4)
		t.Errorf("shards = %d, want 4", s.Shards)
	}
	if s.CorruptRecords != 0 || s.StaleShards != 0 {
		t.Errorf("clean store reported damage: %+v", s)
	}
	for i := 0; i < n; i++ {
		o, ok := d2.Get(testKey(i))
		if !ok {
			t.Fatalf("key %d lost across reopen", i)
		}
		if o != testOutcome(i) {
			t.Fatalf("key %d value changed: %+v", i, o)
		}
	}
	if _, ok := d2.Get(testKey(99)); ok {
		t.Error("phantom hit")
	}
	s = d2.Stats()
	if s.Hits != n || s.Misses != 1 {
		t.Errorf("hit/miss = %d/%d, want %d/1", s.Hits, s.Misses, n)
	}
}

// oneShardDir builds a store whose records all land in a single shard
// and returns the dir and the shard path.
func oneShardDir(t *testing.T, n int) (string, string) {
	t.Helper()
	dir := t.TempDir()
	d, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		o := testOutcome(i)
		o.Problem = "solo"
		if err := d.Put(testKey(i), o); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	return dir, filepath.Join(dir, "solo"+shardSuffix)
}

func TestDiskTruncatedTail(t *testing.T) {
	dir, shard := oneShardDir(t, 5)
	data, err := os.ReadFile(shard)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the last record as a crash mid-append would.
	if err := os.WriteFile(shard, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := Open(dir)
	if err != nil {
		t.Fatalf("truncated shard failed open: %v", err)
	}
	defer d.Close()
	s := d.Stats()
	if s.Entries != 4 {
		t.Errorf("entries = %d, want 4 (last record torn)", s.Entries)
	}
	if s.CorruptRecords != 1 {
		t.Errorf("corrupt = %d, want 1", s.CorruptRecords)
	}
	// The store stays writable after damage: appending resumes.
	o := testOutcome(9)
	o.Problem = "solo"
	if err := d.Put(testKey(9), o); err != nil {
		t.Fatal(err)
	}
}

func TestDiskBitFlipSkipsOnlyThatRecord(t *testing.T) {
	dir, shard := oneShardDir(t, 5)
	data, err := os.ReadFile(shard)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the SECOND record's payload: its CRC fails
	// but its length prefix is intact, so records 3..5 stay readable.
	n0 := int(binary.LittleEndian.Uint32(data[headerSize:]))
	second := headerSize + 4 + n0 + 4
	data[second+4+keySize+3] ^= 0xff
	if err := os.WriteFile(shard, data, 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := Open(dir)
	if err != nil {
		t.Fatalf("bit-flipped shard failed open: %v", err)
	}
	defer d.Close()
	s := d.Stats()
	if s.Entries != 4 {
		t.Errorf("entries = %d, want 4 (one record flipped)", s.Entries)
	}
	if s.CorruptRecords != 1 {
		t.Errorf("corrupt = %d, want 1", s.CorruptRecords)
	}
	if _, ok := d.Get(testKey(1)); ok {
		t.Error("corrupt record served")
	}
	for _, i := range []int{0, 2, 3, 4} {
		if _, ok := d.Get(testKey(i)); !ok {
			t.Errorf("healthy record %d lost to a neighbor's corruption", i)
		}
	}
}

func TestDiskStaleSchemaIgnored(t *testing.T) {
	dir, shard := oneShardDir(t, 3)
	data, err := os.ReadFile(shard)
	if err != nil {
		t.Fatal(err)
	}
	// Bump the header version: a future (or ancient) layout must be
	// ignored wholesale, counted, and never parsed.
	binary.LittleEndian.PutUint16(data[4:6], shardVersion+1)
	if err := os.WriteFile(shard, data, 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := Open(dir)
	if err != nil {
		t.Fatalf("stale shard failed open: %v", err)
	}
	defer d.Close()
	s := d.Stats()
	if s.Entries != 0 || s.StaleShards != 1 || s.CorruptRecords != 0 {
		t.Errorf("stats = %+v, want 0 entries / 1 stale / 0 corrupt", s)
	}
	// Not-our-magic files are treated the same way.
	if err := os.WriteFile(filepath.Join(dir, "junk"+shardSuffix), []byte("not a shard"), 0o644); err != nil {
		t.Fatal(err)
	}
	d2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if s := d2.Stats(); s.StaleShards != 2 {
		t.Errorf("stale = %d, want 2", s.StaleShards)
	}
}

// TestDiskLengthPrefixFlipNeverMisreads covers the other corruption
// axis: a bit flip in a record's length prefix destroys framing from
// that point on. The contract is weaker than for payload flips — the
// shard's tail may be lost (skipped and counted) — but nothing may be
// misread: every record served must be one that was actually written.
func TestDiskLengthPrefixFlipNeverMisreads(t *testing.T) {
	dir, shard := oneShardDir(t, 5)
	data, err := os.ReadFile(shard)
	if err != nil {
		t.Fatal(err)
	}
	n0 := int(binary.LittleEndian.Uint32(data[headerSize:]))
	second := headerSize + 4 + n0 + 4
	// Flip a low bit of record 2's length prefix: still a plausible
	// size, but the framing after record 1 is now garbage.
	data[second] ^= 0x04
	if err := os.WriteFile(shard, data, 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := Open(dir)
	if err != nil {
		t.Fatalf("prefix-flipped shard failed open: %v", err)
	}
	defer d.Close()
	s := d.Stats()
	if s.CorruptRecords == 0 {
		t.Error("prefix flip not counted as corruption")
	}
	// Whatever survived must be exactly records we wrote; record 1
	// precedes the damage and must survive.
	if _, ok := d.Get(testKey(0)); !ok {
		t.Error("record before the damaged prefix was lost")
	}
	hits := 0
	for i := 0; i < 5; i++ {
		o := testOutcome(i)
		o.Problem = "solo"
		if got, ok := d.Get(testKey(i)); ok {
			hits++
			if got != o {
				t.Fatalf("record %d misread: %+v", i, got)
			}
		}
	}
	if s.Entries != hits {
		t.Errorf("index holds %d entries but only %d verified", s.Entries, hits)
	}
}

// TestDiskPutRotatesStaleShard guards the stale-header append path: a
// Put whose shard already exists with an unknown header version (or a
// foreign/torn header) must not append behind it — those records
// would be skipped wholesale on the next open. The stale file is
// parked aside, a fresh shard is started, and the new record survives
// reopen; gc sweeps the parked file.
func TestDiskPutRotatesStaleShard(t *testing.T) {
	dir := t.TempDir()
	shard := filepath.Join(dir, "solo"+shardSuffix)
	junk := []byte("JUNKHDR!")
	if err := os.WriteFile(shard, junk, 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s := d.Stats(); s.StaleShards != 1 {
		t.Fatalf("stale = %d, want 1", s.StaleShards)
	}
	o := testOutcome(1)
	o.Problem = "solo"
	if err := d.Put(testKey(1), o); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := d2.Get(testKey(1)); !ok || got != o {
		t.Fatalf("record appended behind a stale header was lost on reopen (ok=%v)", ok)
	}
	if s := d2.Stats(); s.StaleShards != 0 || s.CorruptRecords != 0 {
		t.Errorf("reopened stats = %+v, want clean", s)
	}
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}
	// The foreign bytes were parked, not destroyed — and gc sweeps them.
	parked, err := os.ReadFile(shard + ".stale0")
	if err != nil || string(parked) != string(junk) {
		t.Fatalf("stale shard not parked intact: %v", err)
	}
	res, err := Compact(dir)
	if err != nil {
		t.Fatal(err)
	}
	if res.StaleShardsRemoved != 1 {
		t.Errorf("gc removed %d stale files, want 1", res.StaleShardsRemoved)
	}
	if _, err := os.Stat(shard + ".stale0"); !os.IsNotExist(err) {
		t.Error("parked stale file survived gc")
	}
}

func TestDiskConcurrentAccess(t *testing.T) {
	d, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				// Writers overlap on keys, as concurrent jobs running
				// the same spec do.
				if err := d.Put(testKey(i), testOutcome(i)); err != nil {
					t.Error(err)
					return
				}
				d.Get(testKey((i + g) % 50))
			}
		}(g)
	}
	wg.Wait()
	if s := d.Stats(); s.Entries != 50 {
		t.Errorf("entries = %d, want 50", s.Entries)
	}
}

func TestInspectAndCompact(t *testing.T) {
	dir, shard := oneShardDir(t, 6)
	// Manufacture damage: append a duplicate record by hand plus a torn
	// tail, and add a stale shard alongside.
	d, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	o := testOutcome(7)
	o.Problem = "other"
	if err := d.Put(testKey(7), o); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(shard)
	if err != nil {
		t.Fatal(err)
	}
	n0 := int(binary.LittleEndian.Uint32(data[headerSize:]))
	first := data[headerSize : headerSize+4+n0+4]
	data = append(data, first...)   // duplicate of record 1
	data = append(data, 0x01, 0x02) // torn tail
	if err := os.WriteFile(shard, data, 0o644); err != nil {
		t.Fatal(err)
	}
	stale := filepath.Join(dir, "old"+shardSuffix)
	staleData := shardHeader()
	binary.LittleEndian.PutUint16(staleData[4:6], shardVersion+9)
	if err := os.WriteFile(stale, staleData, 0o644); err != nil {
		t.Fatal(err)
	}

	reps, err := Inspect(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 3 {
		t.Fatalf("inspect found %d shards, want 3", len(reps))
	}
	var soloRep *ShardReport
	staleCount := 0
	for i := range reps {
		if reps[i].Problem == "solo" {
			soloRep = &reps[i]
		}
		if reps[i].Stale {
			staleCount++
		}
	}
	if soloRep == nil {
		t.Fatal("solo shard missing from inspect")
	}
	if soloRep.Records != 7 || soloRep.Entries != 6 || soloRep.Corrupt != 1 {
		t.Errorf("solo report = %+v, want 7 records / 6 entries / 1 corrupt", *soloRep)
	}
	if staleCount != 1 {
		t.Errorf("stale shards = %d, want 1", staleCount)
	}

	// Orphaned compactor temp files (a gc killed before its rename)
	// are swept too.
	orphan := filepath.Join(dir, "solo"+shardSuffix+".tmp12345")
	if err := os.WriteFile(orphan, []byte("half-written"), 0o644); err != nil {
		t.Fatal(err)
	}

	res, err := Compact(dir)
	if err != nil {
		t.Fatal(err)
	}
	if res.StaleShardsRemoved != 2 || res.DroppedDuplicates != 1 || res.DroppedCorrupt != 1 {
		t.Errorf("compact = %+v", res)
	}
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Error("orphaned compactor temp file survived gc")
	}
	if res.BytesAfter >= res.BytesBefore {
		t.Errorf("compact reclaimed nothing: %d -> %d", res.BytesBefore, res.BytesAfter)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Error("stale shard survived gc")
	}
	// Every live entry survives compaction, damage counters reset.
	d2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	s := d2.Stats()
	if s.Entries != 7 || s.CorruptRecords != 0 || s.StaleShards != 0 {
		t.Errorf("post-compact stats = %+v, want 7 clean entries", s)
	}
	for _, i := range []int{0, 1, 2, 3, 4, 5, 7} {
		if _, ok := d2.Get(testKey(i)); !ok {
			t.Errorf("entry %d lost in compaction", i)
		}
	}
}
