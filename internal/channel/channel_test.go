package channel

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"fabriccrdt/internal/core"
	"fabriccrdt/internal/orderer"
	"fabriccrdt/internal/rwset"
	"fabriccrdt/internal/statedb"
)

func TestValidateIDs(t *testing.T) {
	for name, ids := range map[string][]string{
		"empty-list":     {},
		"empty-name":     {"ch1", ""},
		"duplicate":      {"ch1", "ch2", "ch1"},
		"path-separator": {"ch/1"},
		"parent-dir":     {".."},
		"dot-prefix":     {".ch1"},
		"space":          {"ch 1"},
	} {
		if err := ValidateIDs(ids); err == nil {
			t.Errorf("%s: ValidateIDs(%q) accepted", name, ids)
		}
	}
	if err := ValidateIDs([]string{"channel1", "Ch-2", "ch_3.shard"}); err != nil {
		t.Fatalf("valid IDs rejected: %v", err)
	}
}

func TestRegistryLifecycle(t *testing.T) {
	if _, err := NewRegistry(); err == nil {
		t.Fatal("empty registry accepted")
	}
	if _, err := NewRegistry("a", "a"); err == nil {
		t.Fatal("duplicate channels accepted")
	}
	r, err := NewRegistry("ch1", "ch2")
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Default(); got != "ch1" {
		t.Fatalf("Default() = %q, want ch1", got)
	}
	if !r.Has("ch2") || r.Has("ch3") {
		t.Fatal("Has misreports membership")
	}
	if _, err := r.Service("ch1"); err == nil {
		t.Fatal("Service resolved before StartService")
	}
	if _, err := r.StartService("ch3", orderer.DefaultConfig(10), 0, nil); err == nil {
		t.Fatal("StartService accepted an unknown channel")
	}
	for _, id := range r.IDs() {
		if _, err := r.StartService(id, orderer.DefaultConfig(10), 0, nil); err != nil {
			t.Fatalf("StartService(%s): %v", id, err)
		}
	}
	if _, err := r.StartService("ch1", orderer.DefaultConfig(10), 0, nil); err == nil {
		t.Fatal("double StartService accepted")
	}
	s1, err := r.Service("ch1")
	if err != nil {
		t.Fatal(err)
	}
	s2, err := r.Service("ch2")
	if err != nil {
		t.Fatal(err)
	}
	if s1 == s2 {
		t.Fatal("channels share an ordering service")
	}
	deliver, err := r.Subscribe("ch2")
	if err != nil {
		t.Fatal(err)
	}
	r.StopAll()
	if _, open := <-deliver; open {
		t.Fatal("StopAll did not close deliver channels")
	}
	// A stopped registry accepts no further StartService: a late service
	// would order blocks no committer goroutine drains.
	r2, err := NewRegistry("late")
	if err != nil {
		t.Fatal(err)
	}
	r2.StopAll()
	if _, err := r2.StartService("late", orderer.DefaultConfig(10), 0, nil); err == nil {
		t.Fatal("StartService accepted after StopAll")
	}
}

func TestNewRuntimeRejectsBadBackendConfig(t *testing.T) {
	for name, committer := range map[string]CommitterConfig{
		"unknown-backend":       {Backend: "couchdb"},
		"disk-no-datadir":       {Backend: BackendDisk},
		"lsm-no-datadir":        {Backend: BackendLSM},
		"misspelled-entry":      {Backend: "Memory"},
		"misspelled-lsm":        {Backend: "LSM"},
		"removed-sharded":       {Backend: "sharded"},
		"blocks-on-memory":      {Backend: BackendMemory, PersistBlocks: PersistBlocksOn},
		"blocks-on-no-backend":  {PersistBlocks: PersistBlocksOn},
		"blocks-unknown-mode":   {Backend: BackendDisk, DataDir: t.TempDir(), PersistBlocks: "bogus"},
		"blocks-misspelled-off": {Backend: BackendDisk, DataDir: t.TempDir(), PersistBlocks: "Off"},
	} {
		if _, err := NewRuntime("ch1", committer, core.Options{}); err == nil {
			t.Errorf("%s: NewRuntime accepted %+v", name, committer)
		}
	}
	for _, committer := range []CommitterConfig{
		{},
		{Backend: BackendMemory},
		{Backend: BackendDisk, DataDir: t.TempDir()},
		{Backend: BackendDisk, DataDir: t.TempDir(), PersistBlocks: PersistBlocksOn},
		{Backend: BackendDisk, DataDir: t.TempDir(), PersistBlocks: PersistBlocksOff},
		{Backend: BackendLSM, DataDir: t.TempDir()},
		{Backend: BackendLSM, DataDir: t.TempDir(), PersistBlocks: PersistBlocksOn},
		{Backend: BackendLSM, DataDir: t.TempDir(), PersistBlocks: PersistBlocksOff},
		{Backend: BackendLSM, DataDir: t.TempDir(), StateCacheBytes: 1 << 20},
		{Backend: BackendMemory, PersistBlocks: PersistBlocksOff},
	} {
		rt, err := NewRuntime("ch1", committer, core.Options{})
		if err != nil {
			t.Errorf("NewRuntime(%+v): %v", committer, err)
			continue
		}
		rt.Close()
	}
}

// TestDiskRuntimePerChannelLayout pins the on-disk contract: each channel
// persists under its own DataDir/<channel-ID> subdirectory — the state
// store directly inside, the block store (on by default with the disk
// backend) under its blocks/ subdirectory — so channels on one peer never
// share a log.
func TestDiskRuntimePerChannelLayout(t *testing.T) {
	dir := t.TempDir()
	committer := CommitterConfig{Backend: BackendDisk, DataDir: dir}
	for _, id := range []string{"ch1", "ch2"} {
		rt, err := NewRuntime(id, committer, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if rt.Blocks() == nil {
			t.Fatalf("channel %s: block persistence is not on by default with the disk backend", id)
		}
		if err := rt.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := os.Stat(filepath.Join(dir, id)); err != nil {
			t.Fatalf("channel %s has no %s subdirectory: %v", id, filepath.Join(dir, id), err)
		}
		if _, err := os.Stat(filepath.Join(dir, id, "blocks", "blocks.log")); err != nil {
			t.Fatalf("channel %s has no block log: %v", id, err)
		}
	}
	// PersistBlocksOff keeps the block store out of the layout.
	committer.PersistBlocks = PersistBlocksOff
	rt, err := NewRuntime("ch3", committer, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rt.Blocks() != nil {
		t.Fatal("PersistBlocksOff still opened a block store")
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "ch3", "blocks")); !os.IsNotExist(err) {
		t.Fatalf("PersistBlocksOff still created a blocks/ directory: %v", err)
	}
}

// TestNewRuntimeRejectsLegacyStore: a data directory in the
// pre-multi-channel layout (state files directly under DataDir) must be
// refused with a migration hint, not silently abandoned by opening a
// fresh per-channel subdirectory beside it.
func TestNewRuntimeRejectsLegacyStore(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "state.log"), []byte{}, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := NewRuntime("ch1", CommitterConfig{Backend: BackendDisk, DataDir: dir}, core.Options{})
	if err == nil {
		t.Fatal("NewRuntime opened beside a legacy store")
	}
	if !strings.Contains(err.Error(), "pre-multi-channel") {
		t.Fatalf("unhelpful legacy-store error: %v", err)
	}
}

// TestNewRuntimeRejectsDamagedStore: a durable store with height but no
// chain checkpoint (damage, or a store from an incompatible version) must
// refuse to open — a genesis chain over a non-zero height would make
// fast-forward silently swallow every new block up to that height.
func TestNewRuntimeRejectsDamagedStore(t *testing.T) {
	dir := t.TempDir()
	db, err := statedb.NewDisk(filepath.Join(dir, "ch1"))
	if err != nil {
		t.Fatal(err)
	}
	batch := statedb.NewUpdateBatch()
	batch.Put("k", []byte("v"), rwset.Version{BlockNum: 3})
	db.Apply(batch, rwset.Version{BlockNum: 3})
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	_, err = NewRuntime("ch1", CommitterConfig{Backend: BackendDisk, DataDir: dir}, core.Options{})
	if err == nil {
		t.Fatal("NewRuntime accepted a durable store with height but no checkpoint")
	}
	if !strings.Contains(err.Error(), "checkpoint") {
		t.Fatalf("unhelpful damage error: %v", err)
	}
}

// TestRuntimeDedupIsChannelLocal: the duplicate-screening set (in-memory
// and durable markers) belongs to one runtime; the same ID on another
// channel is a different transaction.
func TestRuntimeDedupIsChannelLocal(t *testing.T) {
	dir := t.TempDir()
	committer := CommitterConfig{Backend: BackendDisk, DataDir: dir}
	rt1, err := NewRuntime("ch1", committer, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rt1.Close()
	rt2, err := NewRuntime("ch2", committer, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rt2.Close()

	rt1.Lock()
	rt1.MarkCommitted("tx-shared")
	seen1 := rt1.WasCommitted("tx-shared")
	rt1.Unlock()
	rt2.Lock()
	seen2 := rt2.WasCommitted("tx-shared")
	rt2.Unlock()
	if !seen1 || seen2 {
		t.Fatalf("dedup leaked across channels: ch1=%v ch2=%v", seen1, seen2)
	}

	// Durable markers are channel-local too.
	batch := statedb.NewUpdateBatch()
	batch.PutMeta(MetaTxSeen("tx-durable"), []byte{1})
	rt1.DB().Apply(batch, rwset.Version{BlockNum: 1})
	rt1.Lock()
	d1 := rt1.WasCommitted("tx-durable")
	rt1.Unlock()
	rt2.Lock()
	d2 := rt2.WasCommitted("tx-durable")
	rt2.Unlock()
	if !d1 || d2 {
		t.Fatalf("durable dedup leaked across channels: ch1=%v ch2=%v", d1, d2)
	}
}

func TestAdaptiveWorkers(t *testing.T) {
	cpus := runtime.NumCPU()
	if got := AdaptiveWorkers(1); got != cpus {
		t.Fatalf("AdaptiveWorkers(1) = %d, want NumCPU = %d", got, cpus)
	}
	want := cpus / 2
	if want < 1 {
		want = 1
	}
	if got := AdaptiveWorkers(2); got != want {
		t.Fatalf("AdaptiveWorkers(2) = %d, want %d", got, want)
	}
	// More channels than CPUs still leaves every channel one worker.
	if got := AdaptiveWorkers(16 * cpus); got != 1 {
		t.Fatalf("AdaptiveWorkers(%d) = %d, want 1", 16*cpus, got)
	}
	if got := AdaptiveWorkers(0); got < 1 {
		t.Fatalf("AdaptiveWorkers(0) = %d, want >= 1", got)
	}
}
