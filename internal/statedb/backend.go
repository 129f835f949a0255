package statedb

import (
	"sync"

	"fabriccrdt/internal/rwset"
)

// Backend is the storage engine behind a DB. Implementations must be safe
// for concurrent use: endorsement-phase reads run while block commits write.
//
// Apply must commit the whole batch before any of it becomes visible to
// Range: range reads are not recorded into read sets, so MVCC validation
// cannot catch a torn scan. Point reads (Get/GetMeta) may observe a batch
// partially — each key's version is re-checked by MVCC validation at
// commit, so per-key atomicity suffices there.
//
// The built-in implementations are the single-lock mapBackend (New) and
// the persistent diskBackend (NewDisk / OpenDisk) and lsmBackend
// (NewLSM). Durable backends additionally satisfy
// the Durable interface.
type Backend interface {
	// Get returns the value stored at key.
	Get(key string) (VersionedValue, bool)
	// GetMeta returns a metadata value (nil when absent).
	GetMeta(key string) []byte
	// Apply commits a set of key mutations and metadata writes produced by
	// one block, together with that block's commit height. In-memory
	// backends may ignore the height (DB tracks it for them); durable
	// backends persist it so a restarted peer knows where to resume.
	Apply(updates map[string]Update, meta map[string][]byte, height rwset.Version)
	// Range returns all keys in [start, end) in sorted order; an empty end
	// means "to the last key".
	Range(start, end string) []KV
	// KeyCount returns the number of live keys.
	KeyCount() int
	// Reset drops all contents.
	Reset()
}

// Durable is implemented by backends whose contents survive process
// restarts. NewWithBackend seeds the DB's height from PersistedHeight, so
// a reopened DB reports the height of the last durably committed block;
// DB.Close forwards to Close.
type Durable interface {
	Backend
	// PersistedHeight returns the height recorded by the last Apply that
	// reached the store (zero for a fresh store).
	PersistedHeight() rwset.Version
	// Close flushes and releases the store. The backend must not be used
	// afterwards.
	Close() error
}

// mapBackend is the trivial backend: one map pair behind one global RWMutex.
// It is the default and the reference implementation the durable backends
// are tested against.
type mapBackend struct {
	mu   sync.RWMutex
	data map[string]VersionedValue
	meta map[string][]byte
}

func newMapBackend() *mapBackend {
	return &mapBackend{
		data: make(map[string]VersionedValue),
		meta: make(map[string][]byte),
	}
}

func (b *mapBackend) Get(key string) (VersionedValue, bool) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	vv, ok := b.data[key]
	return vv, ok
}

func (b *mapBackend) GetMeta(key string) []byte {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.meta[key]
}

func (b *mapBackend) Apply(updates map[string]Update, meta map[string][]byte, _ rwset.Version) {
	b.mu.Lock()
	defer b.mu.Unlock()
	applyToMaps(b.data, b.meta, updates, meta)
}

// applyToMaps applies one batch to a data/meta map pair — the shared
// in-memory commit step of the map and disk backends.
func applyToMaps(data map[string]VersionedValue, metaDst map[string][]byte, updates map[string]Update, meta map[string][]byte) {
	for key, u := range updates {
		if u.IsDelete {
			delete(data, key)
			continue
		}
		data[key] = VersionedValue{Value: u.Value, Version: u.Version}
	}
	for key, v := range meta {
		metaDst[key] = v
	}
}

func (b *mapBackend) Range(start, end string) []KV {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return rangeOverMap(b.data, start, end)
}

// rangeOverMap collects [start, end) from a data map in sorted order.
func rangeOverMap(data map[string]VersionedValue, start, end string) []KV {
	out := make([]KV, 0, len(data))
	for k, vv := range data {
		if k >= start && (end == "" || k < end) {
			out = append(out, KV{Key: k, VersionedValue: vv})
		}
	}
	sortKVs(out)
	return out
}

func (b *mapBackend) KeyCount() int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return len(b.data)
}

func (b *mapBackend) Reset() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.data = make(map[string]VersionedValue)
	b.meta = make(map[string][]byte)
}
