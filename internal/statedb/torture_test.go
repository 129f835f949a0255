package statedb

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"fabriccrdt/internal/rwset"
)

// TestBackendTortureEquivalence drives all three backends — memory,
// disk, LSM — through one randomized op stream: puts, deletes,
// metadata writes, range scans (including degenerate bounds), mid-stream
// reopens of the durable backends, and thresholds tiny enough that disk
// compaction, LSM flushes and LSM background compaction all fire during
// the run. Every backend must stay byte-identical to the map reference
// at every observation point. Run under -race this doubles as the
// concurrency-free interleaving check for flush/compaction state swaps.
func TestBackendTortureEquivalence(t *testing.T) {
	for _, seed := range []int64{101, 202, 303} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			tortureRun(t, seed)
		})
	}
}

// tortureHarness owns the three backends plus the directories the durable
// two reopen from.
type tortureHarness struct {
	ref     *DB // map backend: the executable spec
	disk    *DB
	lsm     *DB
	diskDir string
	lsmDir  string
}

func (h *tortureHarness) all() []*DB { return []*DB{h.ref, h.disk, h.lsm} }

func (h *tortureHarness) names() []string { return []string{"ref", "disk", "lsm"} }

func tortureDiskOptions() DiskOptions {
	return DiskOptions{CompactAfterBytes: 1 << 10}
}

func newTortureHarness(t *testing.T) *tortureHarness {
	t.Helper()
	h := &tortureHarness{
		ref:     New(),
		diskDir: t.TempDir(),
		lsmDir:  t.TempDir(),
	}
	var err error
	if h.disk, err = NewDiskWithOptions(h.diskDir, tortureDiskOptions()); err != nil {
		t.Fatal(err)
	}
	if h.lsm, err = NewLSMWithOptions(h.lsmDir, tinyLSMOptions()); err != nil {
		t.Fatal(err)
	}
	return h
}

func tortureRun(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	h := newTortureHarness(t)
	defer func() {
		waitCompactions(h.lsm)
		for i, db := range h.all() {
			if err := db.Close(); err != nil {
				t.Errorf("close %s: %v", h.names()[i], err)
			}
		}
	}()

	key := func() string { return fmt.Sprintf("k%03d", rng.Intn(120)) }
	blk := uint64(0)

	applyBatch := func() {
		blk++
		batch := NewUpdateBatch()
		n := 1 + rng.Intn(25)
		for i := 0; i < n; i++ {
			switch rng.Intn(5) {
			case 0:
				batch.Delete(key(), rwset.Version{BlockNum: blk, TxNum: uint64(i)})
			case 4:
				batch.PutMeta("crdt/"+key(), []byte(fmt.Sprintf("m%d-%d", blk, i)))
			default:
				// Values vary in size so LSM blocks split at assorted points.
				batch.Put(key(), []byte(fmt.Sprintf("v%d-%d-%0*d", blk, i, rng.Intn(60), 0)), rwset.Version{BlockNum: blk, TxNum: uint64(i)})
			}
		}
		for _, db := range h.all() {
			db.Apply(batch, rwset.Version{BlockNum: blk})
		}
	}

	compareRanges := func(start, end string) {
		want := h.ref.GetRange(start, end)
		for i, db := range h.all()[1:] {
			got := db.GetRange(start, end)
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("block %d: Range(%q, %q) diverged on %s:\nwant %v\ngot  %v",
					blk, start, end, h.names()[i+1], want, got)
			}
		}
	}

	observe := func() {
		compareRanges("", "")
		a, b := key(), key()
		compareRanges(a, b) // arbitrary bounds: may be empty, inverted, equal
		compareRanges(a, "")
		compareRanges(a, a)
		for i, db := range h.all()[1:] {
			if got, want := db.KeyCount(), h.ref.KeyCount(); got != want {
				t.Fatalf("block %d: KeyCount on %s = %d, want %d", blk, h.names()[i+1], got, want)
			}
			k := key()
			wantV, wantOK := h.ref.Get(k)
			gotV, gotOK := db.Get(k)
			if wantOK != gotOK || !reflect.DeepEqual(wantV, gotV) {
				t.Fatalf("block %d: Get(%q) on %s diverged", blk, k, h.names()[i+1])
			}
			mk := "crdt/" + key()
			if !reflect.DeepEqual(h.ref.GetMeta(mk), db.GetMeta(mk)) {
				t.Fatalf("block %d: GetMeta(%q) on %s diverged", blk, mk, h.names()[i+1])
			}
		}
	}

	reopenDurable := func() {
		waitCompactions(h.lsm)
		if err := h.disk.Close(); err != nil {
			t.Fatalf("block %d: close disk: %v", blk, err)
		}
		if err := h.lsm.Close(); err != nil {
			t.Fatalf("block %d: close lsm: %v", blk, err)
		}
		var err error
		if h.disk, err = NewDiskWithOptions(h.diskDir, tortureDiskOptions()); err != nil {
			t.Fatalf("block %d: reopen disk: %v", blk, err)
		}
		if h.lsm, err = NewLSMWithOptions(h.lsmDir, tinyLSMOptions()); err != nil {
			t.Fatalf("block %d: reopen lsm: %v", blk, err)
		}
		for i, db := range []*DB{h.disk, h.lsm} {
			if got, want := db.Height(), (rwset.Version{BlockNum: blk}); got != want {
				t.Fatalf("block %d: reopened %s height = %v", blk, []string{"disk", "lsm"}[i], got)
			}
		}
	}

	for step := 0; step < 160; step++ {
		switch r := rng.Intn(10); {
		case r < 6:
			applyBatch()
		case r < 8:
			observe()
		case r < 9:
			reopenDurable()
			observe()
		default:
			// A burst of batches without observation, so flushes and
			// compactions interleave between checks.
			for i := 0; i < 5; i++ {
				applyBatch()
			}
		}
	}
	observe()
	reopenDurable()
	observe()
	for _, db := range h.all()[1:] {
		requireSameState(t, h.ref, db)
	}
}
