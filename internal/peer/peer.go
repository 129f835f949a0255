// Package peer implements a Fabric peer: the endorser that simulates
// chaincode against the local world state during the execution phase, and
// the committer that validates delivered blocks and applies them to the
// ledger (paper §2.1). With CRDT support enabled the committer routes
// CRDT-flagged transactions through the FabricCRDT merge engine instead of
// MVCC validation (paper §5.1, Figure 2).
//
// A peer joins one or more channels (Config.Channels). Each channel gets
// its own commit runtime (internal/channel.Runtime): world state, hash
// chain, block numbering, duplicate screening, MVCC version space and
// crash-restart resume are all channel-private, so N channels commit fully
// in parallel — CommitBlockOn serializes commits per channel, never across
// channels. The single-channel API (CommitBlock, DB, Chain, Height,
// Genesis) operates on the peer's default channel, the first configured.
//
// Each channel's world state lives behind a configurable statedb backend
// (CommitterConfig.Backend): the in-memory map or the persistent LSM
// backend, stored under DataDir/<channel-ID>. A peer
// reopening an LSM backend's data directory restarts every channel at its
// own recorded block height — HeightOn reports it, and CommitBlockOn
// fast-forwards re-delivered blocks at or below it instead of
// re-validating them (DESIGN.md §4, §6).
//
// Alongside the state store, the LSM backend keeps a durable block store
// by default (CommitterConfig.PersistBlocks, internal/blockstore): every
// committed block body is appended in the finalize stage just before the
// state apply, so the ledger — not the state snapshot — is the recovery
// root. A restarted peer serves its full history to syncing peers
// (SyncFrom) and can rebuild its world state from block 0 (RebuildState),
// reproducing the pre-restart state byte for byte (DESIGN.md §8).
package peer

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"fabriccrdt/internal/chaincode"
	"fabriccrdt/internal/channel"
	"fabriccrdt/internal/core"
	"fabriccrdt/internal/cryptoid"
	"fabriccrdt/internal/endorse"
	"fabriccrdt/internal/jsoncrdt"
	"fabriccrdt/internal/ledger"
	"fabriccrdt/internal/obs"
	"fabriccrdt/internal/rwset"
	"fabriccrdt/internal/statedb"
)

// Proposal is a client's request to simulate a chaincode invocation.
type Proposal struct {
	TxID string
	// ChannelID routes the simulation to one of the peer's channels; empty
	// means the default channel.
	ChannelID string
	Chaincode string
	Args      [][]byte
	// Creator is the serialized identity of the submitting client.
	Creator []byte
	// TraceID carries the client's obs trace ID (empty when tracing is
	// off) so the endorsing hop records a span under the same trace.
	TraceID string
}

// ProposalResponse is one endorser's signed simulation result.
type ProposalResponse struct {
	// Endorser is the serialized identity of the endorsing peer.
	Endorser []byte
	// ChannelID echoes the channel the proposal resolved to — the ID the
	// signature covers and the assembled transaction must carry (a
	// default-channel proposal with an empty ChannelID learns the real
	// name here; committers reject transactions naming any other channel).
	ChannelID string
	// RWSet is the simulated read/write set.
	RWSet rwset.ReadWriteSet
	// Signature signs the would-be transaction's endorsement payload.
	Signature []byte
}

// CommitEvent notifies a listener of one transaction's commit outcome.
type CommitEvent struct {
	TxID string
	// ChannelID names the channel the transaction committed on.
	ChannelID string
	BlockNum  uint64
	Code      ledger.ValidationCode
}

// CommitResult summarizes one committed block.
type CommitResult struct {
	// ChannelID names the channel the block was committed on.
	ChannelID  string
	BlockNum   uint64
	Codes      []ledger.ValidationCode
	MergedKeys []string
	// CommittedTx counts transactions whose writes reached the state.
	CommittedTx int
	// FastForwarded reports that the block's writes were already in the
	// world state (a restarted peer re-receiving history it durably
	// committed), so validation, merge and state apply were skipped and
	// the block was only recorded in the chain.
	FastForwarded bool
}

// Config configures a peer.
type Config struct {
	Name  string
	MSPID string
	// ChannelID is the single-channel convenience knob: with Channels
	// empty, the peer joins just this channel (or channel.DefaultChannel
	// when both are empty).
	ChannelID string
	// Channels lists every channel the peer joins; the first is the
	// default channel the single-channel API binds to. Overrides
	// ChannelID when set. Names must be unique and non-empty.
	Channels []string
	// EnableCRDT turns the peer into a FabricCRDT peer; disabled it
	// behaves exactly like stock Fabric (CRDT-flagged writes validate and
	// commit as ordinary writes).
	EnableCRDT bool
	// EngineOptions tunes the merge engine (ablation switches). A zero
	// EngineOptions.Workers inherits the resolved Committer.Workers.
	EngineOptions core.Options
	// Committer tunes the staged commit pipeline of every channel (see
	// pipeline.go). A zero Committer.Workers is resolved adaptively:
	// runtime.NumCPU() divided across the peer's channels.
	Committer CommitterConfig
}

// Peer errors.
var (
	ErrUnknownChaincode = errors.New("peer: chaincode not installed")
	ErrChaincodeFailed  = errors.New("peer: chaincode invocation failed")
	ErrBadCreator       = errors.New("peer: creator identity rejected")
	ErrUnknownChannel   = errors.New("peer: channel not joined")
)

// Peer is one peer node. Endorsement (Endorse) may run concurrently with
// commits; commits are serialized per channel by each channel runtime's
// commit mutex, mirroring Fabric's single commit pipeline per channel —
// distinct channels commit in parallel.
type Peer struct {
	cfg    Config
	signer *cryptoid.Signer
	msp    *cryptoid.MSP

	// channelIDs is the joined channel list in configuration order;
	// channelIDs[0] is the default channel. channels maps each ID to its
	// private commit runtime.
	channelIDs []string
	channels   map[string]*channel.Runtime

	// reg is the peer's metrics registry: per-(channel,stage) commit
	// histograms, block/transaction counters, height, store and
	// event-queue gauges — everything the -metrics-addr endpoint serves
	// for this peer, and the single source CommitTimings reads from. Each
	// peer owns its registry so multi-peer processes (fabricnet, tests)
	// keep their series apart; serve them merged via obs.Render.
	reg *obs.Registry
	// cm holds each channel's registered instruments; read-only after New,
	// so the commit hot path observes without locks.
	cm map[string]*channelMetrics

	eventMu   sync.RWMutex
	listeners []*eventSub
}

// channelMetrics is one channel's registered commit instruments.
type channelMetrics struct {
	// stages maps stage name → latency histogram (the commitStages set,
	// built once at New).
	stages map[string]*obs.Histogram
	// blocks counts committed blocks; txOK/txRejected count transactions
	// by commit outcome.
	blocks     *obs.Counter
	txOK       *obs.Counter
	txRejected *obs.Counter
}

// observe records one stage latency.
func (cm *channelMetrics) observe(stage string, d time.Duration) {
	if cm == nil {
		return
	}
	cm.stages[stage].Observe(d)
}

// time runs fn and records its wall clock under stage.
func (cm *channelMetrics) time(stage string, fn func()) {
	if cm == nil {
		fn()
		return
	}
	//lint:ignore determinism stage timing only; durations feed metrics, never committed state
	start := time.Now()
	fn()
	cm.stages[stage].Observe(time.Since(start))
}

// New creates a peer with its own world state and chain per joined
// channel, signing with the given identity and trusting the given MSP
// roots. It fails when the channel list is invalid (empty or duplicate
// names), the configured state backend is unknown, or a channel store
// cannot be opened (the LSM backend needs a usable Committer.DataDir;
// each channel persists under DataDir/<channel-ID>).
//
// With the LSM backend, a peer constructed over a previously used DataDir
// resumes every channel from its persisted state: HeightOn reports the
// last durably committed block per channel, and CommitBlockOn
// fast-forwards re-delivered blocks up to that height instead of
// re-validating them.
func New(cfg Config, signer *cryptoid.Signer, msp *cryptoid.MSP) (*Peer, error) {
	ids := cfg.Channels
	if len(ids) == 0 {
		id := cfg.ChannelID
		if id == "" {
			id = channel.DefaultChannel
		}
		ids = []string{id}
	}
	if err := channel.ValidateIDs(ids); err != nil {
		return nil, fmt.Errorf("peer %s: %w", cfg.Name, err)
	}
	// Adaptive worker sizing (DESIGN.md §6): an unset worker knob shares
	// the host's CPUs evenly across the peer's channels instead of
	// defaulting to serial — channels commit in parallel, so each one
	// sizing its pools for the whole machine would oversubscribe it.
	if cfg.Committer.Workers == 0 {
		cfg.Committer.Workers = channel.AdaptiveWorkers(len(ids))
	}
	if cfg.EngineOptions.Workers == 0 {
		cfg.EngineOptions.Workers = cfg.Committer.Workers
	}
	p := &Peer{
		cfg:        cfg,
		signer:     signer,
		msp:        msp,
		channelIDs: append([]string(nil), ids...),
		channels:   make(map[string]*channel.Runtime, len(ids)),
		reg:        obs.NewRegistry(),
		cm:         make(map[string]*channelMetrics, len(ids)),
	}
	for _, id := range ids {
		rt, err := channel.NewRuntime(id, cfg.Committer, cfg.EngineOptions)
		if err != nil {
			p.closeRuntimes()
			return nil, fmt.Errorf("peer %s: %w", cfg.Name, err)
		}
		p.channels[id] = rt
	}
	p.registerMetrics()
	return p, nil
}

// registerMetrics builds the peer's registry: stage histograms and commit
// counters per channel, scrape-time gauges over live state (heights, key
// counts, store sizes, event-queue depth). Registration happens once
// here; afterwards the registry is only read (scrapes) or updated through
// atomics.
func (p *Peer) registerMetrics() {
	name := p.cfg.Name
	for _, id := range p.channelIDs {
		rt := p.channels[id]
		cm := &channelMetrics{
			stages:     make(map[string]*obs.Histogram, len(commitStages)),
			blocks:     p.reg.Counter(obs.MetricPeerBlocksCommitted, "peer", name, "channel", id),
			txOK:       p.reg.Counter(obs.MetricPeerTxsCommitted, "peer", name, "channel", id, "result", "committed"),
			txRejected: p.reg.Counter(obs.MetricPeerTxsCommitted, "peer", name, "channel", id, "result", "rejected"),
		}
		for _, stage := range commitStages {
			cm.stages[stage] = p.reg.Histogram(obs.MetricCommitStageSeconds,
				"peer", name, "channel", id, "stage", stage)
		}
		p.cm[id] = cm
		p.reg.GaugeFunc(obs.MetricPeerBlockHeight,
			func() float64 { return float64(rt.Height()) }, "peer", name, "channel", id)
		p.reg.GaugeFunc(obs.MetricStatedbKeys,
			func() float64 { return float64(rt.DB().KeyCount()) }, "peer", name, "channel", id)
		if _, durable := rt.DB().Stats(); durable {
			p.reg.GaugeFunc(obs.MetricStatedbLogBytes, func() float64 {
				st, _ := rt.DB().Stats()
				return float64(st.LogBytes)
			}, "peer", name, "channel", id)
			p.reg.CounterFunc(obs.MetricStatedbAppends, func() float64 {
				st, _ := rt.DB().Stats()
				return float64(st.Appends)
			}, "peer", name, "channel", id)
			p.reg.CounterFunc(obs.MetricStatedbFsyncs, func() float64 {
				st, _ := rt.DB().Stats()
				return float64(st.Fsyncs)
			}, "peer", name, "channel", id)
			p.reg.CounterFunc(obs.MetricStatedbCompactions, func() float64 {
				st, _ := rt.DB().Stats()
				return float64(st.Compactions)
			}, "peer", name, "channel", id)
			// Memtable flushes, sorted runs and block-cache traffic.
			p.reg.CounterFunc(obs.MetricStatedbFlushes, func() float64 {
				st, _ := rt.DB().Stats()
				return float64(st.Flushes)
			}, "peer", name, "channel", id)
			p.reg.GaugeFunc(obs.MetricStatedbRuns, func() float64 {
				st, _ := rt.DB().Stats()
				return float64(st.Runs)
			}, "peer", name, "channel", id)
			p.reg.CounterFunc(obs.MetricStatedbCacheHits, func() float64 {
				st, _ := rt.DB().Stats()
				return float64(st.CacheHits)
			}, "peer", name, "channel", id)
			p.reg.CounterFunc(obs.MetricStatedbCacheMisses, func() float64 {
				st, _ := rt.DB().Stats()
				return float64(st.CacheMisses)
			}, "peer", name, "channel", id)
		}
		if bs := rt.Blocks(); bs != nil {
			p.reg.GaugeFunc(obs.MetricBlockstoreHeight,
				func() float64 { return float64(bs.Height()) }, "peer", name, "channel", id)
			p.reg.GaugeFunc(obs.MetricBlockstoreLogBytes,
				func() float64 { return float64(bs.Stats().LogBytes) }, "peer", name, "channel", id)
			p.reg.CounterFunc(obs.MetricBlockstoreAppends,
				func() float64 { return float64(bs.Stats().Appends) }, "peer", name, "channel", id)
			p.reg.CounterFunc(obs.MetricBlockstoreFsyncs,
				func() float64 { return float64(bs.Stats().Fsyncs) }, "peer", name, "channel", id)
		}
	}
	p.reg.GaugeFunc(obs.MetricPeerEventQueueDepth,
		func() float64 { return float64(p.EventBacklog()) }, "peer", name)
	p.reg.GaugeFunc(obs.MetricPeerEventListeners, func() float64 {
		p.eventMu.RLock()
		defer p.eventMu.RUnlock()
		return float64(len(p.listeners))
	}, "peer", name)
}

// Metrics returns the peer's registry, for serving (merged with the
// process Default registry) behind -metrics-addr and for test and
// benchmark readouts.
func (p *Peer) Metrics() *obs.Registry { return p.reg }

// EventBacklog returns the total number of commit events queued across
// all listeners' handoff queues — the scrape-time depth of the peer's
// unbounded event fan-out.
func (p *Peer) EventBacklog() int {
	p.eventMu.RLock()
	defer p.eventMu.RUnlock()
	total := 0
	for _, s := range p.listeners {
		s.mu.Lock()
		total += len(s.queue)
		s.mu.Unlock()
	}
	return total
}

// closeRuntimes closes every opened channel runtime, keeping the first
// error.
func (p *Peer) closeRuntimes() error {
	var first error
	for _, id := range p.channelIDs {
		rt, ok := p.channels[id]
		if !ok {
			continue
		}
		if err := rt.Close(); err != nil && first == nil {
			first = fmt.Errorf("channel %s: %w", id, err)
		}
	}
	return first
}

// runtime resolves a channel ID to its commit runtime; empty means the
// default channel.
func (p *Peer) runtime(channelID string) (*channel.Runtime, error) {
	if channelID == "" {
		channelID = p.channelIDs[0]
	}
	rt, ok := p.channels[channelID]
	if !ok {
		return nil, fmt.Errorf("%w: %q on peer %s (joined: %v)", ErrUnknownChannel, channelID, p.cfg.Name, p.channelIDs)
	}
	return rt, nil
}

// channelMetricsFor resolves a channel ID (empty means default) to its
// registry-backed stage metrics; nil for unknown channels, which every
// channelMetrics method tolerates.
func (p *Peer) channelMetricsFor(channelID string) *channelMetrics {
	if channelID == "" {
		channelID = p.channelIDs[0]
	}
	return p.cm[channelID]
}

// Name returns the peer's name.
func (p *Peer) Name() string { return p.cfg.Name }

// MSPID returns the peer's organization.
func (p *Peer) MSPID() string { return p.cfg.MSPID }

// CRDTEnabled reports whether the FabricCRDT merge path is active.
func (p *Peer) CRDTEnabled() bool { return p.cfg.EnableCRDT }

// Channels returns the joined channel IDs in configuration order; the
// first is the default channel.
func (p *Peer) Channels() []string { return append([]string(nil), p.channelIDs...) }

// DefaultChannel returns the channel the single-channel convenience API
// (DB, Chain, Height, CommitBlock, Genesis) binds to.
func (p *Peer) DefaultChannel() string { return p.channelIDs[0] }

// Workers returns the resolved commit-pipeline worker count per channel —
// the configured CommitterConfig.Workers, or the adaptive derivation
// (NumCPU spread across channels) when it was left zero.
func (p *Peer) Workers() int { return p.cfg.Committer.Workers }

// DB exposes the default channel's world state (read-side: examples,
// experiments).
func (p *Peer) DB() *statedb.DB { return p.channels[p.channelIDs[0]].DB() }

// DBOn exposes one channel's world state.
func (p *Peer) DBOn(channelID string) (*statedb.DB, error) {
	rt, err := p.runtime(channelID)
	if err != nil {
		return nil, err
	}
	return rt.DB(), nil
}

// Height returns the number of the last block whose writes reached the
// default channel's world state — with the LSM backend, the last durably
// committed block, which survives restarts. Deliver loops can use it to
// resume at Height()+1; CommitBlock itself fast-forwards any block at or
// below it.
func (p *Peer) Height() uint64 { return p.channels[p.channelIDs[0]].Height() }

// HeightOn returns one channel's committed state height.
func (p *Peer) HeightOn(channelID string) (uint64, error) {
	rt, err := p.runtime(channelID)
	if err != nil {
		return 0, err
	}
	return rt.Height(), nil
}

// Close releases every channel's state backend (a no-op for in-memory
// backends). With the LSM backend it flushes each channel's log and
// surfaces the first deferred write error; the peer must not commit
// afterwards.
func (p *Peer) Close() error {
	if err := p.closeRuntimes(); err != nil {
		return fmt.Errorf("peer %s: %w", p.cfg.Name, err)
	}
	return nil
}

// Chain exposes the default channel's blockchain.
func (p *Peer) Chain() *ledger.Chain { return p.channels[p.channelIDs[0]].Chain() }

// ChainOn exposes one channel's blockchain.
func (p *Peer) ChainOn(channelID string) (*ledger.Chain, error) {
	rt, err := p.runtime(channelID)
	if err != nil {
		return nil, err
	}
	return rt.Chain(), nil
}

// Genesis returns the default channel's genesis block. It panics on a peer
// restored from a durable state checkpoint without a block store (block
// persistence off), whose chain no longer holds the genesis body — use
// Chain().LastRef for the resume point instead. With block persistence on
// (the LSM-backend default) the genesis stays retrievable across
// restarts.
func (p *Peer) Genesis() *ledger.Block {
	g, err := p.Chain().Get(0)
	if err != nil {
		panic("peer: chain without genesis: " + err.Error())
	}
	return g
}

// InstallChaincode installs a chaincode with its endorsement policy on
// EVERY channel the peer joined — the install-everywhere convenience the
// network assembly uses. Installation itself is per channel (each channel
// runtime keeps its own registry, as Fabric deploys chaincode to channels);
// use InstallChaincodeOn to install on a single channel, leaving invokes on
// the others rejected.
func (p *Peer) InstallChaincode(name string, cc chaincode.Chaincode, policy *endorse.Policy) {
	for _, id := range p.channelIDs {
		p.channels[id].InstallChaincode(name, cc, policy)
	}
}

// InstallChaincodeOn installs a chaincode on one channel only. Proposals
// and committed transactions naming this chaincode on any other channel
// fail (ErrUnknownChaincode at endorsement, CodeEndorsementFailure at
// commit) — a transaction endorsed against one channel's chaincode cannot
// cross into another.
func (p *Peer) InstallChaincodeOn(channelID, name string, cc chaincode.Chaincode, policy *endorse.Policy) error {
	rt, err := p.runtime(channelID)
	if err != nil {
		return err
	}
	rt.InstallChaincode(name, cc, policy)
	return nil
}

// lookupChaincode returns the chaincode installed on one channel.
func (p *Peer) lookupChaincode(rt *channel.Runtime, name string) (channel.InstalledChaincode, error) {
	entry, ok := rt.Chaincode(name)
	if !ok {
		return channel.InstalledChaincode{}, fmt.Errorf("%w: %q on peer %s channel %s", ErrUnknownChaincode, name, p.cfg.Name, rt.ID())
	}
	return entry, nil
}

// Endorse simulates the proposal against the committed state of the
// proposal's channel and returns the signed read/write set (execution +
// endorsement phase). The world state is not modified (paper: "peers
// simulate the transaction proposal").
func (p *Peer) Endorse(prop Proposal) (ProposalResponse, error) {
	//lint:ignore determinism endorse timing only; durations feed metrics, never committed state
	start := time.Now()
	rt, err := p.runtime(prop.ChannelID)
	if err != nil {
		return ProposalResponse{}, err
	}
	// Normalize an empty (default-channel) proposal to the resolved
	// channel: the endorsement payload signs the channel ID, and the
	// committer rejects transactions whose ChannelID does not name the
	// channel they are delivered on — so the assembled transaction must
	// carry the resolved ID, never "".
	prop.ChannelID = rt.ID()
	creator, err := cryptoid.UnmarshalIdentity(prop.Creator)
	if err != nil {
		return ProposalResponse{}, fmt.Errorf("%w: %v", ErrBadCreator, err)
	}
	if err := p.msp.VerifyIdentity(creator); err != nil {
		return ProposalResponse{}, fmt.Errorf("%w: %v", ErrBadCreator, err)
	}
	entry, err := p.lookupChaincode(rt, prop.Chaincode)
	if err != nil {
		return ProposalResponse{}, err
	}
	stub := chaincode.NewSimStub(prop.TxID, prop.Args, rt.DB())
	if err := entry.Chaincode.Invoke(stub); err != nil {
		return ProposalResponse{}, fmt.Errorf("%w: %v", ErrChaincodeFailed, err)
	}
	rw := stub.Result()
	for i := range rw.Writes {
		w := &rw.Writes[i]
		if !p.cfg.EnableCRDT {
			// A stock Fabric peer has no notion of CRDT writes: the flags
			// are dropped and the writes validate/commit as ordinary ones.
			w.IsCRDT = false
			w.CRDTType = ""
			continue
		}
		// The committer refuses such a delta as INVALID_CRDT_VALUE; refuse
		// it here already so an honest client learns why.
		if w.IsCRDT && w.CRDTType == "" {
			if err := jsoncrdt.CheckDepth(w.Value); err != nil {
				return ProposalResponse{}, fmt.Errorf("peer: CRDT write to %q: %w", w.Key, err)
			}
		}
	}
	payload, err := endorsementPayload(prop, rw)
	if err != nil {
		return ProposalResponse{}, err
	}
	endorser, err := p.signer.Identity.Marshal()
	if err != nil {
		return ProposalResponse{}, err
	}
	obs.Trace(prop.TraceID, "peer.endorse", start,
		"peer", p.cfg.Name, "txID", prop.TxID, "channel", prop.ChannelID)
	return ProposalResponse{
		Endorser:  endorser,
		ChannelID: prop.ChannelID,
		RWSet:     rw,
		Signature: p.signer.Sign(payload),
	}, nil
}

// endorsementPayload derives the signed payload from a proposal + rwset,
// matching Transaction.EndorsementPayload for the assembled transaction.
func endorsementPayload(prop Proposal, rw rwset.ReadWriteSet) ([]byte, error) {
	tx := ledger.Transaction{
		ID:        prop.TxID,
		ChannelID: prop.ChannelID,
		Chaincode: prop.Chaincode,
		RWSet:     rw,
	}
	return tx.EndorsementPayload()
}

// eventSub is one listener's commit-event feed: an unbounded handoff queue
// drained into the listener's channel by a dedicated forwarder goroutine
// (the same shape as the orderer's deliver subscriptions). The committer's
// push only appends under the subscription's own lock — it never blocks on
// the listener — so a slow (or absent) consumer can never stall the commit
// path; its backlog just accumulates in the queue.
type eventSub struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []CommitEvent
	closed bool
	out    chan CommitEvent
}

func newEventSub() *eventSub {
	s := &eventSub{out: make(chan CommitEvent, 64)}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// push enqueues one event and returns the queue depth; never blocks.
func (s *eventSub) push(ev CommitEvent) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0
	}
	s.queue = append(s.queue, ev)
	s.cond.Signal()
	return len(s.queue)
}

// close stops the feed; the forwarder drains what is queued, then closes
// the listener's channel.
func (s *eventSub) close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	s.cond.Signal()
}

// forward drains the queue into the out channel until closed and empty.
func (s *eventSub) forward() {
	for {
		s.mu.Lock()
		for len(s.queue) == 0 && !s.closed {
			s.cond.Wait()
		}
		batch := s.queue
		s.queue = nil
		closed := s.closed
		s.mu.Unlock()
		for _, ev := range batch {
			s.out <- ev
		}
		if closed {
			close(s.out)
			return
		}
	}
}

// Events returns a channel receiving one CommitEvent per transaction in
// every block this peer commits — on any of its channels — from the time
// of the call. Listeners interested in a single channel filter on
// CommitEvent.ChannelID. Delivery is off the commit path: events are
// handed to a per-listener forwarder through an unbounded queue, so a
// listener that stops reading delays only itself, never a commit
// (DESIGN.md §5).
func (p *Peer) Events() <-chan CommitEvent {
	p.eventMu.Lock()
	defer p.eventMu.Unlock()
	s := newEventSub()
	p.listeners = append(p.listeners, s)
	go s.forward()
	return s.out
}

// CloseEvents stops all event feeds; call once no more blocks will be
// committed. Each listener's channel closes after its queued events have
// been delivered.
func (p *Peer) CloseEvents() {
	p.eventMu.Lock()
	defer p.eventMu.Unlock()
	for _, s := range p.listeners {
		s.close()
	}
	p.listeners = nil
}

func (p *Peer) emit(ev CommitEvent) {
	p.eventMu.RLock()
	defer p.eventMu.RUnlock()
	for _, s := range p.listeners {
		obs.WarnQueueDepth("peer_events", p.cfg.Name, s.push(ev))
	}
}

// validateEndorsements checks the signatures and endorsement policy of one
// transaction against one channel's chaincode registry, returning
// CodeNotValidated when it passes (the decision then falls to the merge
// engine or MVCC validation). A chaincode not installed on the committing
// channel — even if installed on another channel of this peer — is an
// endorsement failure: invokes do not cross channels.
func (p *Peer) validateEndorsements(rt *channel.Runtime, tx *ledger.Transaction) ledger.ValidationCode {
	entry, err := p.lookupChaincode(rt, tx.Chaincode)
	if err != nil {
		return ledger.CodeEndorsementFailure
	}
	payload, err := tx.EndorsementPayload()
	if err != nil {
		return ledger.CodeBadSignature
	}
	var orgs []string
	for _, end := range tx.Endorsements {
		id, err := cryptoid.UnmarshalIdentity(end.Endorser)
		if err != nil {
			return ledger.CodeBadSignature
		}
		if err := p.msp.VerifySignature(id, payload, end.Signature); err != nil {
			return ledger.CodeBadSignature
		}
		orgs = append(orgs, id.MSPID)
	}
	if !entry.Policy.Satisfied(orgs) {
		return ledger.CodeEndorsementFailure
	}
	return ledger.CodeNotValidated
}

// SyncFrom catches this peer up to a source peer by fetching and
// committing, channel by channel, every block this peer is missing — the
// state-transfer path a freshly joined or restarted peer runs before
// serving endorsements. The source must have every channel this peer
// joined; a restarted LSM-backed source serves its pre-restart history
// from its durable block store (its checkpointed chains answer Get for
// the whole range [0, height)), so syncing from block 0 works across the
// source's restarts. Blocks are re-validated from scratch (endorsements,
// merge, MVCC), so a lying source cannot inject invalid state; only the
// hash-chained block contents are trusted as delivered.
func (p *Peer) SyncFrom(source *Peer) error {
	for _, id := range p.channelIDs {
		rt := p.channels[id]
		srcChain, err := source.ChainOn(id)
		if err != nil {
			return fmt.Errorf("peer %s: syncing channel %s from %s: %w", p.cfg.Name, id, source.Name(), err)
		}
		for {
			next := rt.Chain().Height()
			if next >= srcChain.Height() {
				break
			}
			block, err := srcChain.Get(next)
			if err != nil {
				return fmt.Errorf("peer %s: fetching block %d of channel %s from %s: %w", p.cfg.Name, next, id, source.Name(), err)
			}
			if _, err := p.CommitBlockOn(id, block); err != nil {
				return fmt.Errorf("peer %s: syncing block %d of channel %s: %w", p.cfg.Name, next, id, err)
			}
		}
	}
	return nil
}

// RebuildState replays each channel's blockchain into a fresh world state
// — the recovery path a peer runs after a crash (paper §2.1: "executing
// all valid transactions included in the blockchain starting from the
// genesis block results in the current state"). The committed blocks
// already carry their validation codes, so replay applies exactly the
// recorded outcomes and reproduces the live state byte for byte
// (channel.Runtime.ReplayBlock). Channels rebuild independently.
//
// With block persistence on (the LSM-backend default), the durable block
// store covers the full history even across restarts, so a restarted peer
// rebuilds from block 0. A checkpointed channel WITHOUT a block store
// (CommitterConfig.PersistBlocks off) cannot rebuild — the pre-checkpoint
// bodies are gone; its recovery path is the inverse: the durable state IS
// the replay result, and CommitBlockOn fast-forwards re-delivered history.
func (p *Peer) RebuildState() error {
	for _, id := range p.channelIDs {
		if err := p.rebuildChannel(p.channels[id]); err != nil {
			return err
		}
	}
	return nil
}

func (p *Peer) rebuildChannel(rt *channel.Runtime) error {
	rt.Lock()
	defer rt.Unlock()
	if bs := rt.Blocks(); bs != nil {
		// The persisted chain covers [0, height): replay it from scratch.
		// Each iterated block is a fresh private decode, so the owned
		// (copy-free) replay applies.
		rt.DB().Reset()
		rt.ResetCommitted()
		if err := bs.Iterate(1, rt.ReplayOwnedBlock); err != nil {
			return fmt.Errorf("peer %s: rebuilding channel %s from its block store: %w", p.cfg.Name, rt.ID(), err)
		}
		return nil
	}
	if num, _, ok := rt.Chain().Checkpoint(); ok {
		return fmt.Errorf("peer %s: cannot rebuild channel %s from a chain checkpointed at block %d: pre-checkpoint blocks are not stored locally (block persistence is off); enable CommitterConfig.PersistBlocks or SyncFrom a peer holding the history", p.cfg.Name, rt.ID(), num)
	}
	rt.DB().Reset()
	rt.ResetCommitted()
	for _, block := range rt.Chain().Blocks() {
		if err := rt.ReplayBlock(block); err != nil {
			return fmt.Errorf("peer %s: replaying block %d of channel %s: %w", p.cfg.Name, block.Header.Number, rt.ID(), err)
		}
	}
	return nil
}
