package statedb

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"fabriccrdt/internal/rwset"
)

// applyRandomBatches drives identical randomized batch sequences into every
// given DB (the cross-backend parity harness).
func applyRandomBatches(t *testing.T, seed int64, blocks int, dbs ...*DB) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for blk := uint64(1); blk <= uint64(blocks); blk++ {
		batch := NewUpdateBatch()
		for i := 0; i < 20; i++ {
			key := fmt.Sprintf("k%d", rng.Intn(40))
			switch rng.Intn(3) {
			case 0:
				batch.Delete(key, rwset.Version{BlockNum: blk})
			case 1:
				batch.Put(key, []byte(fmt.Sprintf("v%d-%d", blk, i)), rwset.Version{BlockNum: blk, TxNum: uint64(i)})
			case 2:
				batch.PutMeta("crdt/"+key, []byte(fmt.Sprintf("m%d", blk)))
			}
		}
		for _, db := range dbs {
			db.Apply(batch, rwset.Version{BlockNum: blk})
		}
	}
}

// requireSameState fails unless both DBs expose identical data, metadata
// and height.
func requireSameState(t *testing.T, want, got *DB) {
	t.Helper()
	if a, b := want.GetRange("", ""), got.GetRange("", ""); !reflect.DeepEqual(a, b) {
		t.Fatalf("full range diverged:\nwant %v\ngot  %v", a, b)
	}
	if want.KeyCount() != got.KeyCount() {
		t.Fatalf("key counts diverged: %d vs %d", want.KeyCount(), got.KeyCount())
	}
	if want.Height() != got.Height() {
		t.Fatalf("heights diverged: %v vs %v", want.Height(), got.Height())
	}
	for i := 0; i < 40; i++ {
		key := fmt.Sprintf("crdt/k%d", i)
		if !bytes.Equal(want.GetMeta(key), got.GetMeta(key)) {
			t.Fatalf("GetMeta(%q) diverged", key)
		}
	}
}

// tinyLSMOptions forces frequent flushes, small blocks and early
// compaction so short tests exercise every moving part.
func tinyLSMOptions() LSMOptions {
	return LSMOptions{MemtableBytes: 1 << 10, BlockBytes: 256, CacheBytes: 1 << 20, CompactRuns: 2}
}

// lsmOf unwraps the backend for white-box assertions.
func lsmOf(t *testing.T, db *DB) *lsmBackend {
	t.Helper()
	b, ok := db.backend.(*lsmBackend)
	if !ok {
		t.Fatalf("backend is %T, not *lsmBackend", db.backend)
	}
	return b
}

// waitCompactions blocks until any in-flight background compaction has
// finished (applies must have stopped).
func waitCompactions(db *DB) {
	db.backend.(*lsmBackend).compactWG.Wait()
}

func TestLSMMatchesTrivialBackend(t *testing.T) {
	trivial := New()
	lsm, err := NewLSMWithOptions(t.TempDir(), tinyLSMOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer lsm.Close()
	applyRandomBatches(t, 7, 50, trivial, lsm)
	waitCompactions(lsm)
	requireSameState(t, trivial, lsm)
	if a, b := trivial.GetRange("k1", "k3"), lsm.GetRange("k1", "k3"); !reflect.DeepEqual(a, b) {
		t.Fatalf("sub range diverged:\ntrivial %v\nlsm %v", a, b)
	}
	if err := lsm.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

func TestLSMReopenRestoresState(t *testing.T) {
	dir := t.TempDir()
	trivial := New()
	lsm, err := NewLSMWithOptions(dir, tinyLSMOptions())
	if err != nil {
		t.Fatal(err)
	}
	applyRandomBatches(t, 11, 30, trivial, lsm)
	waitCompactions(lsm)
	if err := lsm.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	reopened, err := NewLSMWithOptions(dir, tinyLSMOptions())
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer reopened.Close()
	requireSameState(t, trivial, reopened)
	if got := reopened.Height(); got != (rwset.Version{BlockNum: 30}) {
		t.Fatalf("reopened height = %v, want 30:0", got)
	}
	// The reopened store keeps accepting and persisting batches.
	applyRandomBatches(t, 13, 5, trivial, reopened)
	waitCompactions(reopened)
	requireSameState(t, trivial, reopened)
}

func TestLSMReopenWithDefaultsRestoresState(t *testing.T) {
	// Everything still in the WAL (no flush ever fired): reopen replays it.
	dir := t.TempDir()
	trivial := New()
	lsm, err := NewLSM(dir)
	if err != nil {
		t.Fatal(err)
	}
	applyRandomBatches(t, 19, 20, trivial, lsm)
	if err := lsm.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, manifestFileName)); !os.IsNotExist(err) {
		t.Fatalf("manifest exists before any flush (err=%v)", err)
	}
	reopened, err := NewLSM(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	requireSameState(t, trivial, reopened)
}

func TestLSMEmptyDirRejected(t *testing.T) {
	if _, err := NewLSM(""); err == nil {
		t.Fatal("NewLSM(\"\") succeeded")
	}
	if _, err := OpenLSM("", LSMOptions{}); err == nil {
		t.Fatal("OpenLSM(\"\") succeeded")
	}
}

// TestLSMCompactionMergesRuns drives enough flushes to trigger background
// compaction and checks the merged store still matches the reference,
// also across a reopen.
func TestLSMCompactionMergesRuns(t *testing.T) {
	dir := t.TempDir()
	trivial := New()
	lsm, err := NewLSMWithOptions(dir, tinyLSMOptions())
	if err != nil {
		t.Fatal(err)
	}
	applyRandomBatches(t, 23, 80, trivial, lsm)
	waitCompactions(lsm)
	stats, ok := lsm.Stats()
	if !ok {
		t.Fatal("LSM backend reports no stats")
	}
	if stats.Flushes == 0 {
		t.Fatal("tiny memtable never flushed")
	}
	if stats.Compactions == 0 {
		t.Fatal("run count never triggered a compaction")
	}
	requireSameState(t, trivial, lsm)
	if err := lsm.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := NewLSMWithOptions(dir, tinyLSMOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	requireSameState(t, trivial, reopened)
}

// TestLSMOpenDoesNotRebuildIndex pins the tentpole property: opening an
// LSM directory keeps only run footers/filters and the (empty) memtable
// resident — no full key index, no prefetched blocks — yet Get and Range
// serve correctly through a cache smaller than the dataset.
func TestLSMOpenDoesNotRebuildIndex(t *testing.T) {
	dir := t.TempDir()
	trivial := New()
	// MemtableBytes 1 → every Apply flushes, so the WAL is empty at close
	// and reopen replays nothing into the memtable.
	opts := LSMOptions{MemtableBytes: 1, BlockBytes: 512, CacheBytes: 16 << 10, CompactRuns: 8}
	lsm, err := NewLSMWithOptions(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	const keys = 500
	for blk := uint64(1); blk <= 10; blk++ {
		batch := NewUpdateBatch()
		tb := NewUpdateBatch()
		for i := 0; i < keys/10; i++ {
			k := fmt.Sprintf("key%04d", int(blk-1)*keys/10+i)
			v := []byte(fmt.Sprintf("value-%s-%032d", k, i))
			batch.Put(k, v, rwset.Version{BlockNum: blk, TxNum: uint64(i)})
			tb.Put(k, v, rwset.Version{BlockNum: blk, TxNum: uint64(i)})
		}
		lsm.Apply(batch, rwset.Version{BlockNum: blk})
		trivial.Apply(tb, rwset.Version{BlockNum: blk})
	}
	waitCompactions(lsm)
	if err := lsm.Close(); err != nil {
		t.Fatal(err)
	}

	reopened, err := NewLSMWithOptions(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	b := lsmOf(t, reopened)
	if got := len(b.mem); got != 0 {
		t.Fatalf("reopen left %d memtable entries resident (WAL was empty)", got)
	}
	if _, _, used := b.cache.counters(); used != 0 {
		t.Fatalf("reopen prefetched %d bytes of data blocks into the cache", used)
	}
	if got := reopened.KeyCount(); got != keys {
		t.Fatalf("KeyCount = %d, want %d (manifest-persisted count)", got, keys)
	}

	// Reads are served correctly through the small cache...
	for _, i := range []int{0, 123, 250, 499} {
		k := fmt.Sprintf("key%04d", i)
		want, _ := trivial.Get(k)
		got, ok := reopened.Get(k)
		if !ok || !reflect.DeepEqual(got, want) {
			t.Fatalf("Get(%q) = %v/%v, want %v", k, got, ok, want)
		}
	}
	if a, b2 := trivial.GetRange("key0100", "key0150"), reopened.GetRange("key0100", "key0150"); !reflect.DeepEqual(a, b2) {
		t.Fatalf("sub range diverged after reopen")
	}
	if !reflect.DeepEqual(trivial.GetRange("", ""), reopened.GetRange("", "")) {
		t.Fatalf("full range diverged after reopen")
	}
	// ...and the cache never exceeds its budget.
	if _, _, used := b.cache.counters(); used > opts.CacheBytes {
		t.Fatalf("cache grew to %d bytes, budget %d", used, opts.CacheBytes)
	}
	// The full scans above re-read blocks the point reads already pulled
	// in: the cache must have produced hits.
	if stats, _ := reopened.Stats(); stats.CacheHits == 0 {
		t.Fatal("block cache recorded no hits")
	}
}

func TestLSMReset(t *testing.T) {
	dir := t.TempDir()
	db, err := NewLSMWithOptions(dir, tinyLSMOptions())
	if err != nil {
		t.Fatal(err)
	}
	applyRandomBatches(t, 29, 40, db)
	db.Reset()
	if db.KeyCount() != 0 || !db.Height().IsZero() {
		t.Fatal("reset did not clear state")
	}
	if got := db.GetRange("", ""); len(got) != 0 {
		t.Fatalf("reset left %d keys", len(got))
	}
	// The reset store accepts new writes.
	applyRandomBatches(t, 31, 5, db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// Reset must be durable: a reopen continues from the post-reset state.
	trivial := New()
	applyRandomBatches(t, 31, 5, trivial)
	reopened, err := NewLSMWithOptions(dir, tinyLSMOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	requireSameState(t, trivial, reopened)
}

func TestLSMSyncEveryApply(t *testing.T) {
	opts := tinyLSMOptions()
	opts.SyncEveryApply = true
	db, err := NewLSMWithOptions(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	applyRandomBatches(t, 31, 5, db)
	if stats, _ := db.Stats(); stats.Fsyncs == 0 {
		t.Fatal("SyncEveryApply recorded no fsyncs")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestLSMApplyAfterCloseSurfacesError(t *testing.T) {
	db, err := NewLSM(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	batch := NewUpdateBatch()
	batch.Put("k", []byte("v"), rwset.Version{BlockNum: 1})
	db.Apply(batch, rwset.Version{BlockNum: 1})
	if err := db.Close(); err == nil {
		t.Fatal("Apply after Close left no deferred error")
	}
}

// TestLSMBeforeCompactHook checks the durability-ordering hook runs
// before flushes make state durable, and that a failing hook aborts the
// flush while the WAL stays authoritative.
func TestLSMBeforeCompactHook(t *testing.T) {
	dir := t.TempDir()
	calls := 0
	opts := tinyLSMOptions()
	opts.BeforeCompact = func() error { calls++; return nil }
	db, err := NewLSMWithOptions(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	applyRandomBatches(t, 37, 30, db)
	waitCompactions(db)
	stats, _ := db.Stats()
	if calls == 0 || int64(calls) < stats.Flushes+stats.Compactions {
		t.Fatalf("hook ran %d times for %d flushes + %d compactions", calls, stats.Flushes, stats.Compactions)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// A failing hook: flushes abort, the WAL keeps everything, and a
	// reopen (hook healthy again) recovers the full state.
	dir2 := t.TempDir()
	trivial := New()
	opts2 := tinyLSMOptions()
	opts2.BeforeCompact = func() error { return fmt.Errorf("block log unavailable") }
	db2, err := NewLSMWithOptions(dir2, opts2)
	if err != nil {
		t.Fatal(err)
	}
	applyRandomBatches(t, 41, 20, db2, trivial)
	waitCompactions(db2)
	if lsmOf(t, db2).Err() == nil {
		t.Fatal("failing hook left no recorded error")
	}
	db2.Close() // surfaces the hook error; state is still all in the WAL
	reopened, err := NewLSMWithOptions(dir2, tinyLSMOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	requireSameState(t, trivial, reopened)
}

// TestLSMRejectsForeignStoreDirs pins the guard against stores of the
// removed log+snapshot ("disk") backend: pointing the LSM backend at such
// a directory must refuse, not present an empty state.
func TestLSMRejectsForeignStoreDirs(t *testing.T) {
	for _, name := range []string{"state.log", "state.snap"} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, name), []byte{}, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := NewLSM(dir); err == nil {
			t.Fatalf("LSM opened a directory holding a disk-backend %s", name)
		}
	}
}

// TestLSMConcurrentReadsDuringCommit mirrors the other backends'
// concurrency tests: reads must never race with applies, flushes or
// background compactions.
func TestLSMConcurrentReadsDuringCommit(t *testing.T) {
	db, err := NewLSMWithOptions(t.TempDir(), tinyLSMOptions())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				b := NewUpdateBatch()
				for k := 0; k < 8; k++ {
					b.Put(fmt.Sprintf("k%d", k), []byte{byte(worker)}, rwset.Version{BlockNum: uint64(i)})
				}
				db.Apply(b, rwset.Version{BlockNum: uint64(i)})
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				db.Get("k1")
				db.Version("k2")
				db.Height()
				db.GetRange("", "")
				db.KeyCount()
				db.GetMeta("crdt/k1")
			}
		}()
	}
	wg.Wait()
	waitCompactions(db)
	if err := db.Close(); err != nil {
		t.Fatalf("close after concurrent use: %v", err)
	}
}

// TestRunFileRoundTrip writes a run, reopens it and reads every entry
// back via point lookups and an unbounded iterator.
func TestRunFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	entries := make([]runEntry, 0, 100)
	for i := 0; i < 100; i++ {
		e := runEntry{
			ikey:    fmt.Sprintf("dkey%03d", i),
			version: rwset.Version{BlockNum: uint64(i), TxNum: 1},
		}
		if i%7 == 0 {
			e.tombstone = true
		} else {
			e.value = []byte(fmt.Sprintf("value-%03d", i))
		}
		entries = append(entries, e)
	}
	path := filepath.Join(dir, runFileName(1))
	if err := writeRun(path, entries, 128); err != nil {
		t.Fatal(err)
	}
	r, err := openRun(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	if r.entryCount != 100 {
		t.Fatalf("entryCount = %d", r.entryCount)
	}
	if len(r.index) < 2 {
		t.Fatalf("tiny block size produced only %d blocks", len(r.index))
	}
	rawLoad := func(rr *runReader, i int) ([]runEntry, error) { return rr.readBlock(i) }
	for _, want := range entries {
		got, ok, err := r.get(want.ikey, rawLoad)
		if err != nil || !ok {
			t.Fatalf("get(%q) = %v, %v", want.ikey, ok, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("get(%q) = %+v, want %+v", want.ikey, got, want)
		}
		if !r.filter.mayContain(bloomKeyHash(want.ikey)) {
			t.Fatalf("bloom filter rejects present key %q", want.ikey)
		}
	}
	if _, ok, _ := r.get("dkey9999", rawLoad); ok {
		t.Fatal("get found an absent key")
	}
	it, err := newRunIter(r, "", "", rawLoad)
	if err != nil {
		t.Fatal(err)
	}
	var scanned []runEntry
	for {
		e, ok := it.peek()
		if !ok {
			break
		}
		scanned = append(scanned, e)
		if err := it.advance(); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(scanned, entries) {
		t.Fatalf("iterator scanned %d entries, want %d (or order diverged)", len(scanned), len(entries))
	}
	// Bounded iteration, including bounds landing between blocks.
	it2, err := newRunIter(r, "dkey010", "dkey020", rawLoad)
	if err != nil {
		t.Fatal(err)
	}
	var bounded []string
	for {
		e, ok := it2.peek()
		if !ok {
			break
		}
		bounded = append(bounded, e.ikey)
		if err := it2.advance(); err != nil {
			t.Fatal(err)
		}
	}
	if len(bounded) != 10 || bounded[0] != "dkey010" || bounded[9] != "dkey019" {
		t.Fatalf("bounded scan = %v", bounded)
	}
}

// TestBlockCacheLRU pins the cache's byte budget, eviction order and
// purge behavior.
func TestBlockCacheLRU(t *testing.T) {
	entryOf := func(seq uint64, n int) []runEntry {
		return []runEntry{{ikey: fmt.Sprintf("k%d", seq), value: make([]byte, n)}}
	}
	c := newBlockCache(400)
	c.put(1, 0, entryOf(1, 50)) // ~100 bytes
	c.put(2, 0, entryOf(2, 50)) // ~100 bytes
	c.put(3, 0, entryOf(3, 50)) // ~100 bytes
	if _, ok := c.get(1, 0); !ok {
		t.Fatal("entry 1 evicted under budget")
	}
	// Entry 2 is now least-recently used; this insert must evict it.
	c.put(4, 0, entryOf(4, 150)) // ~200 bytes, pushes used past 400
	if _, ok := c.get(2, 0); ok {
		t.Fatal("LRU eviction spared the least-recently-used entry")
	}
	if _, ok := c.get(1, 0); !ok {
		t.Fatal("recently used entry evicted")
	}
	// An over-budget block is never inserted.
	c.put(5, 0, entryOf(5, 1000))
	if _, ok := c.get(5, 0); ok {
		t.Fatal("cache admitted a block larger than its whole budget")
	}
	c.purge(map[uint64]bool{1: true})
	if _, ok := c.get(1, 0); ok {
		t.Fatal("purge left entry 1")
	}
	hits, misses, used := c.counters()
	if hits == 0 || misses == 0 || used < 0 {
		t.Fatalf("counters = %d/%d/%d", hits, misses, used)
	}
	c.purgeAll()
	if _, _, used := c.counters(); used != 0 {
		t.Fatalf("purgeAll left %d bytes", used)
	}
}

func TestManifestRoundTrip(t *testing.T) {
	height := rwset.Version{BlockNum: 42, TxNum: 7}
	seqs := []uint64{3, 9, 12}
	h, live, got, err := decodeManifest(encodeManifest(height, 1234, seqs))
	if err != nil {
		t.Fatal(err)
	}
	if h != height || live != 1234 || !reflect.DeepEqual(got, seqs) {
		t.Fatalf("round trip = %v/%d/%v", h, live, got)
	}
	bad := map[string][]byte{
		"empty":          {},
		"bad-version":    append([]byte{9}, encodeManifest(height, 1, seqs)[1:]...),
		"trailing-junk":  append(encodeManifest(height, 1, seqs), 0xEE),
		"non-ascending":  encodeManifest(height, 1, []uint64{5, 5}),
		"truncated-seqs": encodeManifest(height, 1, seqs)[:20],
	}
	for name, buf := range bad {
		if _, _, _, err := decodeManifest(buf); err == nil {
			t.Errorf("%s: decodeManifest accepted corrupt manifest", name)
		}
	}
}
