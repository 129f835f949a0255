package blockstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"fabriccrdt/internal/ledger"
)

// makeChain builds n+1 deterministic hash-chained blocks (genesis plus n
// single-transaction blocks) for the tests to store.
func makeChain(t *testing.T, n int) []*ledger.Block {
	t.Helper()
	chain := ledger.NewChain("ch1")
	for i := 1; i <= n; i++ {
		num, hash := chain.LastRef()
		txs := []*ledger.Transaction{{
			ID: fmt.Sprintf("tx-%d", i), ChannelID: "ch1", Chaincode: "cc",
		}}
		dataHash, err := ledger.ComputeDataHash(txs)
		if err != nil {
			t.Fatal(err)
		}
		b := &ledger.Block{
			Header:       ledger.BlockHeader{Number: num + 1, PrevHash: hash, DataHash: dataHash},
			Transactions: txs,
			Metadata:     ledger.BlockMetadata{ValidationCodes: []ledger.ValidationCode{ledger.CodeValid}},
		}
		if err := chain.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	return chain.Blocks()
}

func appendAll(t *testing.T, s *Store, blocks []*ledger.Block) {
	t.Helper()
	for _, b := range blocks {
		if err := s.Append(b); err != nil {
			t.Fatalf("append block %d: %v", b.Header.Number, err)
		}
	}
}

func mustOpen(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// requireBlocks checks that the store serves exactly blocks[0..n) with
// matching header hashes, via Get and Iterate, and not block n.
func requireBlocks(t *testing.T, s *Store, blocks []*ledger.Block) {
	t.Helper()
	if got, want := s.Height(), uint64(len(blocks)); got != want {
		t.Fatalf("height = %d, want %d", got, want)
	}
	for i, want := range blocks {
		got, err := s.Get(uint64(i))
		if err != nil {
			t.Fatalf("Get(%d): %v", i, err)
		}
		if !bytes.Equal(got.HeaderHash(), want.HeaderHash()) {
			t.Fatalf("Get(%d): header hash mismatch", i)
		}
		if len(got.Metadata.ValidationCodes) != len(want.Metadata.ValidationCodes) {
			t.Fatalf("Get(%d): validation codes lost", i)
		}
	}
	if _, err := s.Get(uint64(len(blocks))); !errors.Is(err, ledger.ErrBlockNotFound) {
		t.Fatalf("Get past height: %v, want ErrBlockNotFound", err)
	}
	var seen uint64
	if err := s.Iterate(0, func(b *ledger.Block) error {
		if b.Header.Number != seen {
			return fmt.Errorf("iterate out of order: got %d, want %d", b.Header.Number, seen)
		}
		seen++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if seen != uint64(len(blocks)) {
		t.Fatalf("iterated %d blocks, want %d", seen, len(blocks))
	}
}

func TestRoundTripAndReopen(t *testing.T) {
	dir := t.TempDir()
	blocks := makeChain(t, 5)
	s := mustOpen(t, dir)
	appendAll(t, s, blocks)
	requireBlocks(t, s, blocks)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen (index sidecar present): same contents, appends continue.
	s = mustOpen(t, dir)
	requireBlocks(t, s, blocks)
	if err := s.Append(blocks[2]); err == nil {
		t.Fatal("out-of-sequence append accepted after reopen")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen without the sidecar: the log alone is authoritative.
	if err := os.Remove(filepath.Join(dir, idxFileName)); err != nil {
		t.Fatal(err)
	}
	s = mustOpen(t, dir)
	defer s.Close()
	requireBlocks(t, s, blocks)
}

func TestAppendEnforcesSequence(t *testing.T) {
	blocks := makeChain(t, 2)
	s := mustOpen(t, t.TempDir())
	defer s.Close()
	if err := s.Append(blocks[1]); err == nil {
		t.Fatal("append of block 1 to an empty store accepted")
	}
	appendAll(t, s, blocks)
	if err := s.Append(blocks[2]); err == nil {
		t.Fatal("duplicate append accepted")
	}
}

// TestTornTailTruncatedOnReopen mirrors the statedb WAL suite: every
// prefix-truncation of the log's last frame must reopen cleanly with the
// damaged tail dropped, and the store must accept the dropped block again.
func TestTornTailTruncatedOnReopen(t *testing.T) {
	blocks := makeChain(t, 3)
	// Probe the last frame's size once so the cuts can land in its payload
	// tail, inside its header, and right after its header.
	probe := mustOpen(t, t.TempDir())
	appendAll(t, probe, blocks)
	frameSize := probe.size - probe.offsets[len(probe.offsets)-1]
	probe.Close()
	for _, cut := range []int64{1, frameSize - 3, frameSize - frameHeaderLen - 1} {
		dir := t.TempDir()
		s := mustOpen(t, dir)
		appendAll(t, s, blocks)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		logPath := filepath.Join(dir, logFileName)
		info, err := os.Stat(logPath)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(logPath, info.Size()-cut); err != nil {
			t.Fatal(err)
		}
		s = mustOpen(t, dir)
		requireBlocks(t, s, blocks[:len(blocks)-1])
		// The dropped block can be re-appended: the torn tail is gone.
		if err := s.Append(blocks[len(blocks)-1]); err != nil {
			t.Fatalf("cut %d: re-append after truncation: %v", cut, err)
		}
		requireBlocks(t, s, blocks)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCorruptTailBytesTruncatedOnReopen flips a byte inside the last
// frame's payload: the CRC must catch it and reopening must drop exactly
// that frame.
func TestCorruptTailBytesTruncatedOnReopen(t *testing.T) {
	dir := t.TempDir()
	blocks := makeChain(t, 3)
	s := mustOpen(t, dir)
	appendAll(t, s, blocks)
	lastOff := s.offsets[len(s.offsets)-1]
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	logPath := filepath.Join(dir, logFileName)
	data, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	data[lastOff+frameHeaderLen+4] ^= 0xFF
	if err := os.WriteFile(logPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	// The sidecar indexes the now-corrupt frame; loadIndex must detect the
	// mismatch and fall back to a scan that truncates it.
	s = mustOpen(t, dir)
	defer s.Close()
	requireBlocks(t, s, blocks[:len(blocks)-1])
}

// TestCorruptIndexFallsBackToScan damages the sidecar only: the store must
// ignore it and recover everything from the log.
func TestCorruptIndexFallsBackToScan(t *testing.T) {
	dir := t.TempDir()
	blocks := makeChain(t, 4)
	s := mustOpen(t, dir)
	appendAll(t, s, blocks)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	idxPath := filepath.Join(dir, idxFileName)
	data, err := os.ReadFile(idxPath)
	if err != nil {
		t.Fatal(err)
	}
	// Point the last offset somewhere implausible.
	binary.LittleEndian.PutUint64(data[len(data)-8:], 1<<40)
	if err := os.WriteFile(idxPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s = mustOpen(t, dir)
	defer s.Close()
	requireBlocks(t, s, blocks)
}

// TestStaleIndexScansForward closes the store, removes frames the sidecar
// already covered... the inverse is the realistic crash: frames appended
// AFTER the last sidecar flush. Simulate by saving the sidecar early and
// restoring it after more appends.
func TestStaleIndexScansForward(t *testing.T) {
	dir := t.TempDir()
	blocks := makeChain(t, 6)
	s := mustOpen(t, dir)
	appendAll(t, s, blocks[:3])
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	stale, err := os.ReadFile(filepath.Join(dir, idxFileName))
	if err != nil {
		t.Fatal(err)
	}
	s = mustOpen(t, dir)
	appendAll(t, s, blocks[3:])
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, idxFileName), stale, 0o644); err != nil {
		t.Fatal(err)
	}
	s = mustOpen(t, dir)
	defer s.Close()
	requireBlocks(t, s, blocks)
}

// TestConcurrentReadsDuringAppend serves Get/Iterate while appending — the
// SyncFrom-while-committing shape. Run with -race.
func TestConcurrentReadsDuringAppend(t *testing.T) {
	blocks := makeChain(t, 40)
	s := mustOpen(t, t.TempDir())
	defer s.Close()
	appendAll(t, s, blocks[:1])
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				h := s.Height()
				if h == 0 {
					continue
				}
				if _, err := s.Get(h - 1); err != nil {
					t.Errorf("Get(%d): %v", h-1, err)
					return
				}
				if err := s.Iterate(0, func(*ledger.Block) error { return nil }); err != nil {
					t.Errorf("Iterate: %v", err)
					return
				}
			}
		}()
	}
	appendAll(t, s, blocks[1:])
	wg.Wait()
	requireBlocks(t, s, blocks)
}

func TestClosedStoreRefusesUse(t *testing.T) {
	blocks := makeChain(t, 1)
	s := mustOpen(t, t.TempDir())
	appendAll(t, s, blocks)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
	if err := s.Append(blocks[1]); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close: %v", err)
	}
	if _, err := s.Get(0); !errors.Is(err, ErrClosed) {
		t.Fatalf("get after close: %v", err)
	}
}
