// Package fabriccrdt is a from-scratch Go implementation of FabricCRDT
// (Nasirifard, Mayer, Jacobsen — ACM Middleware 2019): a permissioned
// blockchain in the style of Hyperledger Fabric v1.4 whose peers merge
// conflicting transactions with a JSON CRDT instead of failing them under
// MVCC validation.
//
// The package is a facade over the implementation packages: it exposes
// everything a downstream application needs — network assembly, chaincode
// authoring, client submission, the JSON CRDT document API and the classic
// CRDT library — without reaching into internal/ paths.
//
// Quick start:
//
//	net, _ := fabriccrdt.NewNetwork(fabriccrdt.PaperTopology(25, true))
//	_ = net.InstallChaincode("iot", myChaincode, "OR('Org1.member')")
//	net.Start()
//	defer net.Stop()
//	cli, _ := net.NewClient("Org1", "app", []string{"Org1"})
//	code, err := cli.SubmitAndWait(5*time.Second, "iot", []byte("record"), ...)
//
// See examples/ for complete programs and DESIGN.md for the architecture.
package fabriccrdt

import (
	"fabriccrdt/internal/chaincode"
	"fabriccrdt/internal/channel"
	"fabriccrdt/internal/client"
	"fabriccrdt/internal/core"
	"fabriccrdt/internal/crdt"
	"fabriccrdt/internal/fabricnet"
	"fabriccrdt/internal/jsoncrdt"
	"fabriccrdt/internal/ledger"
	"fabriccrdt/internal/metrics"
	"fabriccrdt/internal/orderer"
	"fabriccrdt/internal/peer"
	"fabriccrdt/internal/statedb"
)

// Network assembly.
type (
	// Network is a running in-process Fabric/FabricCRDT network.
	Network = fabricnet.Network
	// NetworkConfig describes a network's organizations, orderer and mode.
	NetworkConfig = fabricnet.Config
	// OrgConfig describes one organization.
	OrgConfig = fabricnet.OrgConfig
	// OrdererConfig mirrors Fabric's BatchSize/BatchTimeout settings.
	OrdererConfig = orderer.Config
	// EngineOptions tunes the CRDT merge engine. The zero value is the
	// production engine: documents seeded across blocks, and each key's
	// converged document rendered once per block and shared by every
	// merged write of that key. FreshDocPerBlock and PaperSecondPass are
	// the paper-literal Algorithm 1 switches the figure reproduction
	// uses; Workers bounds key-group parallelism.
	EngineOptions = core.Options
	// CommitterConfig tunes every peer's staged commit pipeline: the
	// endorsement-validation worker pool, the async cross-block pipeline
	// depth (Pipeline: how many delivered blocks are decoded and
	// endorsement-validated ahead of the serialized commit stage; 0 =
	// synchronous), the world-state backend (Backend/DataDir/
	// SyncEveryApply/StateCacheBytes — see the Backend* constants) and the
	// durable block store (PersistBlocks — see the PersistBlocks*
	// constants; on by default with the durable backend BackendLSM). One
	// configuration applies per channel: a zero Workers
	// is resolved adaptively (the host's CPUs divided across the network's
	// channels); any Workers or Pipeline setting produces identical commit
	// results.
	CommitterConfig = peer.CommitterConfig
	// CommitStageSummary aggregates one commit-pipeline stage's latencies,
	// as returned by Peer.CommitTimings.
	CommitStageSummary = metrics.StageSummary
	// CommitAggregate is a peer's skew-free commit-latency rollup
	// (Peer.CommitAggregate): Wall is elapsed pipeline time, CPU sums the
	// work done inside it — concurrent stages make CPU exceed Wall.
	CommitAggregate = peer.CommitAggregate
)

// World-state backend names for CommitterConfig.Backend.
const (
	// BackendMemory is the single-lock in-memory map (the default).
	BackendMemory = peer.BackendMemory
	// BackendLSM persists the world state under CommitterConfig.DataDir as
	// a log-structured store (write-ahead log + memtable + sorted runs +
	// bloom filters + block cache; docs/STATEDB.md): peers restarted over
	// the same directory resume from the recorded block height instead of
	// replaying the chain. Opening never rebuilds a full in-memory index,
	// so world state can outgrow RAM. CommitterConfig.StateCacheBytes
	// bounds its block cache.
	BackendLSM = peer.BackendLSM
)

// Block-body persistence modes for CommitterConfig.PersistBlocks
// (BackendLSM only; see docs/PERSISTENCE.md). With the block store on —
// the LSM backend's default — the ledger is the recovery root: a restarted
// peer serves its full history to syncing peers and Peer.RebuildState
// replays the persisted chain into a byte-identical world state.
const (
	// PersistBlocksAuto (the zero value) enables the block store whenever
	// the backend is durable (BackendLSM).
	PersistBlocksAuto = peer.PersistBlocksAuto
	// PersistBlocksOn requires the block store (BackendLSM only).
	PersistBlocksOn = peer.PersistBlocksOn
	// PersistBlocksOff keeps the state-checkpoint-only durability: a
	// restarted peer resumes committing but cannot serve pre-restart
	// blocks or rebuild its state from the chain.
	PersistBlocksOff = peer.PersistBlocksOff
)

// NewNetwork builds a network: per-org CAs, peers, and one ordering
// service per configured channel (NetworkConfig.Channels; the default is
// the single DefaultChannel). Call Start to launch delivery, Stop to shut
// down. Channels commit fully in parallel — aggregate throughput scales
// with the channel count (DESIGN.md §6).
func NewNetwork(cfg NetworkConfig) (*Network, error) { return fabricnet.New(cfg) }

// PaperTopology returns the paper's evaluation topology (§7.2): three
// organizations with two peers each, one orderer, one channel, with the
// given maximum block size; enableCRDT selects FabricCRDT vs stock Fabric.
// Set NetworkConfig.Channels on the result to shard the network over
// several channels.
func PaperTopology(maxBlockTxs int, enableCRDT bool) NetworkConfig {
	return fabricnet.PaperConfig(maxBlockTxs, enableCRDT)
}

// DefaultChannel is the channel ID used when a configuration names none.
const DefaultChannel = channel.DefaultChannel

// ValidateChannels checks a channel list the way NewNetwork will: it must
// be non-empty, names must be non-empty, filesystem-safe and unique.
// CLIs use it to reject a bad channel flag with a friendly error before
// assembling anything.
func ValidateChannels(ids []string) error { return channel.ValidateIDs(ids) }

// DefaultOrdererConfig returns the paper's orderer settings (128 MB byte
// caps, 2 s batch timeout) with the given block size.
func DefaultOrdererConfig(maxMessages int) OrdererConfig {
	return orderer.DefaultConfig(maxMessages)
}

// Chaincode authoring.
type (
	// Chaincode is a smart contract invoked during endorsement.
	Chaincode = chaincode.Chaincode
	// ChaincodeStub is the shim API: GetState/PutState/PutCRDT/DelState.
	ChaincodeStub = chaincode.Stub
	// ChaincodeFunc adapts a plain function to the Chaincode interface.
	ChaincodeFunc = chaincode.Func
)

// Clients and peers.
type (
	// Client drives the execute-order-validate lifecycle for applications
	// on its bound channel.
	Client = client.Client
	// MultiClient bundles one Client per channel: submit/query on a named
	// channel, or round-robin independent transactions across all of them
	// (Network.NewMultiClient builds one).
	MultiClient = client.MultiClient
	// Peer is one peer node (endorser + committer), joined to one or more
	// channels.
	Peer = peer.Peer
	// CommitEvent notifies listeners of a transaction's commit outcome on
	// one channel.
	CommitEvent = peer.CommitEvent
)

// Ledger types.
type (
	// ValidationCode is a transaction's commit outcome.
	ValidationCode = ledger.ValidationCode
	// Block is an ordered batch of transactions.
	Block = ledger.Block
	// Transaction is a client-assembled envelope.
	Transaction = ledger.Transaction
	// WorldState is a peer's versioned key-value state database.
	WorldState = statedb.DB
)

// Validation codes (see ValidationCode.String for wire names).
const (
	CodeValid              = ledger.CodeValid
	CodeMVCCConflict       = ledger.CodeMVCCConflict
	CodeEndorsementFailure = ledger.CodeEndorsementFailure
	CodeBadSignature       = ledger.CodeBadSignature
	CodeDuplicate          = ledger.CodeDuplicate
	CodeCRDTMerged         = ledger.CodeCRDTMerged
	CodeInvalidCRDT        = ledger.CodeInvalidCRDT
	CodeWrongChannel       = ledger.CodeWrongChannel
)

// JSON CRDT document API (Kleppmann & Beresford semantics).
type (
	// JSONDoc is a replicated JSON document; see NewJSONDoc.
	JSONDoc = jsoncrdt.Doc
	// JSONOp is one replicable document operation.
	JSONOp = jsoncrdt.Operation
	// JSONDocOption configures a JSONDoc.
	JSONDocOption = jsoncrdt.Option
)

// NewJSONDoc returns an empty replicated JSON document stamped with the
// given replica identifier.
func NewJSONDoc(replica string, opts ...JSONDocOption) *JSONDoc {
	return jsoncrdt.NewDoc(replica, opts...)
}

// WithOpLog makes a JSONDoc retain locally generated operations for
// replication via TakeOps/ApplyOp.
func WithOpLog() JSONDocOption { return jsoncrdt.WithOpLog() }

// Container sentinels for JSONDoc.Assign/InsertAt/Append.
const (
	EmptyMap  = jsoncrdt.EmptyMap
	EmptyList = jsoncrdt.EmptyList
)

// LoadMergedDoc returns the persisted CRDT document (with merge metadata)
// behind a ledger key on a FabricCRDT peer's default channel, or nil if
// the key was never CRDT-written. The plain converged value is the peer's
// world-state value.
func LoadMergedDoc(p *Peer, key string) (*JSONDoc, error) {
	return core.LoadDoc(p.DB(), key)
}

// LoadMergedDocOn is LoadMergedDoc against an explicit channel — keys are
// channel-local state, so the same key can hold a different document per
// channel.
func LoadMergedDocOn(p *Peer, channelID, key string) (*JSONDoc, error) {
	db, err := p.DBOn(channelID)
	if err != nil {
		return nil, err
	}
	return core.LoadDoc(db, key)
}

// Classic state-based CRDT library (the paper's future-work datatypes).
type (
	// CRDT is a state-based replicated datatype.
	CRDT = crdt.CRDT
	// CRDTRegistry maps datatype names to factories.
	CRDTRegistry = crdt.Registry
	// GCounter is a grow-only counter.
	GCounter = crdt.GCounter
	// PNCounter supports increments and decrements.
	PNCounter = crdt.PNCounter
	// GSet is a grow-only set.
	GSet = crdt.GSet
	// ORSet is an observed-remove (add-wins) set.
	ORSet = crdt.ORSet
	// LWWRegister is a last-writer-wins register.
	LWWRegister = crdt.LWWRegister
	// LWWMap is a last-writer-wins map.
	LWWMap = crdt.LWWMap
	// Graph is an add-wins directed graph.
	Graph = crdt.Graph
)

// NewCRDTRegistry returns a registry preloaded with every built-in
// datatype.
func NewCRDTRegistry() *CRDTRegistry { return crdt.NewRegistry() }

// LoadTypedCRDT returns the accumulated classic-CRDT state behind a ledger
// key on a FabricCRDT peer's default channel (written via
// ChaincodeStub.PutTypedCRDT), or nil if the key was never
// typed-CRDT-written. The plain value (counter total, set members, ...) is
// the peer's world-state value.
func LoadTypedCRDT(p *Peer, key string) (CRDT, error) {
	return core.LoadTypedCRDT(p.DB(), key)
}

// LoadTypedCRDTOn is LoadTypedCRDT against an explicit channel.
func LoadTypedCRDTOn(p *Peer, channelID, key string) (CRDT, error) {
	db, err := p.DBOn(channelID)
	if err != nil {
		return nil, err
	}
	return core.LoadTypedCRDT(db, key)
}
