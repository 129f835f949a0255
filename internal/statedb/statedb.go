// Package statedb implements the world state database: a versioned
// key-value store standing in for the CouchDB instance each Fabric peer
// runs. Executing all valid transactions from the genesis block forward
// yields the current contents (paper §2.1); every value carries the
// (block, tx) version MVCC validation compares against.
//
// A separate metadata space holds FabricCRDT's persisted JSON CRDT document
// states, keeping CRDT bookkeeping invisible to chaincode reads.
//
// Storage lives behind the Backend interface: New returns the trivial
// single-lock map backend, and NewDisk a persistent backend — an append-only CRC-framed record log plus periodic
// snapshot compaction — whose contents and last-committed block height
// survive restarts, so a reopened peer resumes from where it stopped
// instead of replaying the chain (DESIGN.md §4). NewLSM is the second
// persistent backend: a log-structured store (memtable + sorted runs +
// bloom filters + block cache, docs/STATEDB.md) whose open cost and
// resident memory do not scale with the keyspace, for state larger than
// RAM.
//
// Even durable, the world state is only a cache: the ledger's durable
// block store (internal/blockstore, on by default beside a disk-backed
// state) is the recovery root it can always be rebuilt from (DESIGN.md
// §8, docs/PERSISTENCE.md).
package statedb

import (
	"sort"
	"sync"

	"fabriccrdt/internal/rwset"
)

// VersionedValue is a stored value with its commit version.
type VersionedValue struct {
	Value   []byte
	Version rwset.Version
}

// DB is one peer's world state. It is safe for concurrent use: endorsement
// reads proceed while block commits write.
type DB struct {
	backend Backend

	// height is the version of the last committed block, tracked here so
	// every backend gets it for free.
	heightMu sync.RWMutex
	height   rwset.Version
}

// New returns an empty world state on the trivial single-lock backend.
func New() *DB {
	return &DB{backend: newMapBackend()}
}

// NewWithBackend returns a world state over a caller-provided backend.
// If the backend is Durable, the DB starts at its persisted height, so a
// reopened store reports the height of the last durably committed block.
func NewWithBackend(b Backend) *DB {
	db := &DB{backend: b}
	if d, ok := b.(Durable); ok {
		db.height = d.PersistedHeight()
	}
	return db
}

// Close releases a durable backend (no-op for in-memory backends),
// returning any write error the backend had deferred.
func (db *DB) Close() error {
	if d, ok := db.backend.(Durable); ok {
		return d.Close()
	}
	return nil
}

// Get returns the value stored at key.
func (db *DB) Get(key string) (VersionedValue, bool) {
	return db.backend.Get(key)
}

// Version returns the commit version of key, or the zero Version when the
// key is absent — precisely what a chaincode read records into the read set.
func (db *DB) Version(key string) rwset.Version {
	vv, _ := db.backend.Get(key)
	return vv.Version
}

// Height returns the version of the most recent commit.
func (db *DB) Height() rwset.Version {
	db.heightMu.RLock()
	defer db.heightMu.RUnlock()
	return db.height
}

// KeyCount returns the number of live keys.
func (db *DB) KeyCount() int {
	return db.backend.KeyCount()
}

// Stats is a durable backend's I/O accounting, scraped into the obs
// metrics endpoint: current log size plus lifetime append/fsync/compaction
// counts. The LSM backend additionally reports flush counts, the live run
// count and block-cache hit/miss totals (zero for the disk backend, which
// has no runs or cache).
type Stats struct {
	LogBytes    int64
	Appends     int64
	Fsyncs      int64
	Compactions int64
	Flushes     int64
	Runs        int64
	CacheHits   int64
	CacheMisses int64
}

// Stats reports the backend's I/O accounting; false for backends without
// one (the in-memory backends).
func (db *DB) Stats() (Stats, bool) {
	if s, ok := db.backend.(interface{ Stats() Stats }); ok {
		return s.Stats(), true
	}
	return Stats{}, false
}

// Update is one key mutation within a batch.
type Update struct {
	Value    []byte
	IsDelete bool
	Version  rwset.Version
}

// UpdateBatch is an ordered set of key mutations produced by validating one
// block. Later updates of the same key overwrite earlier ones, mirroring
// Fabric's commit of the last valid write per key.
type UpdateBatch struct {
	updates map[string]Update
	metaPut map[string][]byte
}

// NewUpdateBatch returns an empty batch.
func NewUpdateBatch() *UpdateBatch {
	return &UpdateBatch{
		updates: make(map[string]Update),
		metaPut: make(map[string][]byte),
	}
}

// Put stages a value write.
func (b *UpdateBatch) Put(key string, value []byte, version rwset.Version) {
	b.updates[key] = Update{Value: value, Version: version}
}

// Delete stages a key deletion.
func (b *UpdateBatch) Delete(key string, version rwset.Version) {
	b.updates[key] = Update{IsDelete: true, Version: version}
}

// PutMeta stages a metadata write (e.g. a persisted CRDT document).
func (b *UpdateBatch) PutMeta(key string, value []byte) {
	b.metaPut[key] = value
}

// Len returns the number of staged key mutations.
func (b *UpdateBatch) Len() int { return len(b.updates) }

// Apply commits the batch, advancing the DB height. Durable backends also
// persist the height, making it the restart-resume point.
func (db *DB) Apply(batch *UpdateBatch, height rwset.Version) {
	db.backend.Apply(batch.updates, batch.metaPut, height)
	db.heightMu.Lock()
	db.height = height
	db.heightMu.Unlock()
}

// GetMeta returns a metadata value (nil when absent).
func (db *DB) GetMeta(key string) []byte {
	return db.backend.GetMeta(key)
}

// KV is a key with its stored value, returned by range scans.
type KV struct {
	Key string
	VersionedValue
}

// GetRange returns all keys in [start, end) in sorted order; an empty end
// means "to the last key". It stands in for CouchDB range queries used by
// chaincodes.
func (db *DB) GetRange(start, end string) []KV {
	return db.backend.Range(start, end)
}

// Reset drops all contents; used when a peer rebuilds state by replaying
// the blockchain.
func (db *DB) Reset() {
	db.backend.Reset()
	db.heightMu.Lock()
	db.height = rwset.Version{}
	db.heightMu.Unlock()
}

// sortKVs orders range-scan results by key.
func sortKVs(kvs []KV) {
	sort.Slice(kvs, func(i, j int) bool { return kvs[i].Key < kvs[j].Key })
}
