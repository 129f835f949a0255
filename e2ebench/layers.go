package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"

	"fabriccrdt/internal/core"
	"fabriccrdt/internal/cryptoid"
	"fabriccrdt/internal/endorse"
	"fabriccrdt/internal/jsoncrdt"
	"fabriccrdt/internal/ledger"
	"fabriccrdt/internal/obs"
	"fabriccrdt/internal/peer"
	"fabriccrdt/internal/transport"
)

// tap is the traced run's view of the delivery plane: a TransportWrap
// wrapper timestamps every block each peer receives, the commit listeners
// timestamp each peer's commit of each block, and the anchor's delivered
// blocks are kept for the replay.
type tap struct {
	tracer *obs.Tracer
	anchor string

	mu       sync.Mutex
	recvAt   map[string]map[uint64]time.Time // peer → block → first Recv
	commitAt map[string]map[uint64]time.Time // peer → block → first commit event
	captured map[uint64]*ledger.Block        // the anchor's delivered blocks
}

func newTap(tracer *obs.Tracer, anchor string) *tap {
	return &tap{
		tracer:   tracer,
		anchor:   anchor,
		recvAt:   make(map[string]map[uint64]time.Time),
		commitAt: make(map[string]map[uint64]time.Time),
		captured: make(map[uint64]*ledger.Block),
	}
}

func blockTrace(n uint64) string { return "block-" + strconv.FormatUint(n, 10) }

// first records at under m[peer][block] unless already set.
func first(m map[string]map[uint64]time.Time, peerName string, block uint64, at time.Time) bool {
	pm := m[peerName]
	if pm == nil {
		pm = make(map[uint64]time.Time)
		m[peerName] = pm
	}
	if _, ok := pm[block]; ok {
		return false
	}
	pm[block] = at
	return true
}

func (t *tap) received(peerName string, b *ledger.Block, at time.Time) {
	n := b.Header.Number
	t.mu.Lock()
	isFirst := first(t.recvAt, peerName, n, at)
	if isFirst && peerName == t.anchor {
		t.captured[n] = b
	}
	t.mu.Unlock()
	if isFirst {
		t.tracer.Record(blockTrace(n), "transport.recv", at, "peer", peerName,
			"txs", strconv.Itoa(len(b.Transactions)))
	}
}

func (t *tap) committed(peerName string, block uint64, at time.Time) {
	t.mu.Lock()
	isFirst := first(t.commitAt, peerName, block, at)
	recv, ok := t.recvAt[peerName][block]
	t.mu.Unlock()
	if isFirst && ok {
		t.tracer.Record(blockTrace(block), "peer.commit", recv, "peer", peerName)
	}
}

// wrap interposes the tap on one peer's transport.
func (t *tap) wrap(peerName string, tr transport.Transport) transport.Transport {
	return tapTransport{Transport: tr, peer: peerName, tap: t}
}

type tapTransport struct {
	transport.Transport
	peer string
	tap  *tap
}

func (t tapTransport) Deliver(channelID string, from uint64) (transport.BlockStream, error) {
	s, err := t.Transport.Deliver(channelID, from)
	if err != nil {
		return nil, err
	}
	return tapStream{BlockStream: s, peer: t.peer, tap: t.tap}, nil
}

type tapStream struct {
	transport.BlockStream
	peer string
	tap  *tap
}

func (s tapStream) Recv() (*ledger.Block, error) {
	b, err := s.BlockStream.Recv()
	if err == nil {
		s.tap.received(s.peer, b, time.Now())
	}
	return b, err
}

// reportedStages are the commit stages reported per block.
var reportedStages = []string{
	peer.StageDecode, peer.StageEndorse, peer.StageSchedule, peer.StageMerge,
	peer.StageMVCC, peer.StageApply, peer.StageAppend,
}

// snapshot is the process and network counters at one instant; the
// open-loop phase reports deltas between two.
type snapshot struct {
	cpu             time.Duration // process user+sys
	allocBytes      uint64
	allocObjects    uint64
	gcCPU, totalCPU float64 // runtime/metrics CPU-class seconds
	wireBytes       float64
	wireFrames      float64
	stageNs, stageN map[string]float64 // summed over the six peers
	registry        map[string]float64 // peer registry totals summed over peers
	blockstoreBytes float64
}

var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func (d *deployment) snap() snapshot {
	s := snapshot{
		cpu:      processCPU(),
		stageNs:  make(map[string]float64),
		stageN:   make(map[string]float64),
		registry: make(map[string]float64),
	}
	samples := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		samples[i].Name = name
	}
	metrics.Read(samples)
	s.allocBytes = samples[0].Value.Uint64()
	s.allocObjects = samples[1].Value.Uint64()
	s.gcCPU = samples[2].Value.Float64()
	s.totalCPU = samples[3].Value.Float64()
	s.wireBytes, _ = obs.Default().Total(obs.MetricWireBytes)
	s.wireFrames, _ = obs.Default().Total(obs.MetricWireFrames)
	for _, p := range d.net.Peers() {
		for _, st := range p.CommitTimings() {
			s.stageNs[st.Stage] += float64(st.Total)
			s.stageN[st.Stage] += float64(st.Count)
		}
		for _, name := range []string{obs.MetricStatedbFlushes, obs.MetricStatedbCompactions,
			obs.MetricStatedbCacheHits, obs.MetricStatedbCacheMisses, obs.MetricStatedbLogBytes} {
			v, _ := p.Metrics().Total(name)
			s.registry[name] += v
		}
		v, _ := p.Metrics().Total(obs.MetricBlockstoreLogBytes)
		s.blockstoreBytes += v
	}
	return s
}

// backlogSampler polls every peer's commit-event backlog until stopped.
type backlogSampler struct {
	stop chan struct{}
	done chan struct{}
	max  int
}

func sampleBacklog(peers []*peer.Peer) *backlogSampler {
	s := &backlogSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
			for _, p := range peers {
				if b := p.EventBacklog(); b > s.max {
					s.max = b
				}
			}
		}
	}()
	return s
}

// Stop ends sampling and returns the largest backlog seen.
func (s *backlogSampler) Stop() int {
	close(s.stop)
	<-s.done
	return s.max
}

// blockStats is the delivery plane's per-block view from the tap.
type blockStats struct {
	cutWait    []time.Duration // per open-loop write: due → first delivery of its block
	fanout     []time.Duration // per block: first → last peer Recv
	peerCommit []time.Duration // per (peer, block): Recv → commit event
}

func (t *tap) stats(open []opRec, peers int) blockStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	var bs blockStats
	firstRecv := make(map[uint64]time.Time)
	lastRecv := make(map[uint64]time.Time)
	seen := make(map[uint64]int)
	for _, pm := range t.recvAt {
		for n, at := range pm {
			if f, ok := firstRecv[n]; !ok || at.Before(f) {
				firstRecv[n] = at
			}
			if at.After(lastRecv[n]) {
				lastRecv[n] = at
			}
			seen[n]++
		}
	}
	openBlocks := make(map[uint64]bool)
	for _, r := range open {
		if r.kind != opWrite || !r.ok {
			continue
		}
		openBlocks[r.block] = true
		if f, ok := firstRecv[r.block]; ok {
			bs.cutWait = append(bs.cutWait, f.Sub(r.due))
		}
	}
	for n := range openBlocks {
		if seen[n] == peers {
			bs.fanout = append(bs.fanout, lastRecv[n].Sub(firstRecv[n]))
		}
	}
	for name, pm := range t.commitAt {
		for n, at := range pm {
			if recv, ok := t.recvAt[name][n]; ok && openBlocks[n] {
				bs.peerCommit = append(bs.peerCommit, at.Sub(recv))
			}
		}
	}
	for _, s := range [][]time.Duration{bs.cutWait, bs.fanout, bs.peerCommit} {
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	}
	return bs
}

// capturedBlocks returns the anchor's delivered blocks in order.
func (t *tap) capturedBlocks() []*ledger.Block {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*ledger.Block, 0, len(t.captured))
	for _, b := range t.captured {
		out = append(out, b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Header.Number < out[j].Header.Number })
	return out
}

// largestDoc returns the key and persisted CRDT state of the largest
// document among keys on p.
func largestDoc(p *peer.Peer, ch string, keys []string) (string, []byte, error) {
	db, err := p.DBOn(ch)
	if err != nil {
		return "", nil, err
	}
	var bestKey string
	var best []byte
	for _, k := range keys {
		if st := db.GetMeta(core.MetaPrefix + k); len(st) > len(best) {
			bestKey, best = k, st
		}
	}
	if best == nil {
		return "", nil, fmt.Errorf("no persisted CRDT document among %d keys", len(keys))
	}
	return bestKey, append([]byte(nil), best...), nil
}

// replayStats are the uncontended per-block costs of the captured blocks.
type replayStats struct {
	prepareUs, finalizeUs         float64 // mean per block
	prepareAllocs, finalizeAllocs float64 // mean per block
	verifyUs                      float64 // mean per endorsement
	decodeUs                      float64 // mean per block
	docLoadUs, docStoreUs         float64 // median over repetitions
}

// replay commits the captured blocks through a fresh peer built like the
// network's (same backend, same MSP, same chaincode) from one goroutine,
// timing each PrepareBlockOn and FinalizeBlockOn with a MemStats delta,
// then times the endorsement verification and block decode of the same
// blocks and the binary codec of the largest document. It returns the
// replay peer's persisted state of docKey, which must equal the network's.
func replay(d *deployment, blocks []*ledger.Block, workdir, docKey string, doc []byte) (replayStats, []byte, error) {
	var rs replayStats
	if len(blocks) == 0 {
		return rs, nil, fmt.Errorf("replay: no captured blocks")
	}
	signer, err := d.ca.Issue("replay")
	if err != nil {
		return rs, nil, err
	}
	committer := d.committer
	if committer.DataDir != "" {
		committer.DataDir = filepath.Join(workdir, "replay")
		defer os.RemoveAll(committer.DataDir)
	}
	rp, err := peer.New(peer.Config{
		Name: "replay", MSPID: clientOrg, Channels: []string{d.ch},
		EnableCRDT: true, Committer: committer,
	}, signer, d.msp)
	if err != nil {
		return rs, nil, fmt.Errorf("replay peer: %w", err)
	}
	defer rp.Close()
	rp.InstallChaincode(chaincodeName, readChaincode(d.gen), endorse.MustParse(policy))

	var m0, m1, m2 runtime.MemStats
	var prepNs, finNs time.Duration
	var prepAllocs, finAllocs uint64
	runtime.GC()
	for _, b := range blocks {
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		prep, err := rp.PrepareBlockOn(d.ch, b)
		t1 := time.Now()
		runtime.ReadMemStats(&m1)
		if err != nil {
			return rs, nil, fmt.Errorf("replay: preparing block %d: %w", b.Header.Number, err)
		}
		t2 := time.Now()
		res, err := rp.FinalizeBlockOn(prep)
		t3 := time.Now()
		runtime.ReadMemStats(&m2)
		if err != nil {
			return rs, nil, fmt.Errorf("replay: finalizing block %d: %w", b.Header.Number, err)
		}
		for _, c := range res.Codes {
			if c != ledger.CodeCRDTMerged {
				return rs, nil, fmt.Errorf("replay: block %d has a %s transaction", b.Header.Number, c)
			}
		}
		prepNs += t1.Sub(t0)
		finNs += t3.Sub(t2)
		prepAllocs += m1.Mallocs - m0.Mallocs
		finAllocs += m2.Mallocs - m1.Mallocs
		d.tracer().Record(blockTrace(b.Header.Number), "replay.prepare", t0)
	}
	nb := float64(len(blocks))
	rs.prepareUs = float64(prepNs) / 1e3 / nb
	rs.finalizeUs = float64(finNs) / 1e3 / nb
	rs.prepareAllocs = float64(prepAllocs) / nb
	rs.finalizeAllocs = float64(finAllocs) / nb

	var verifyNs, decodeNs time.Duration
	endorsements := 0
	for _, b := range blocks {
		for _, tx := range b.Transactions {
			payload, err := tx.EndorsementPayload()
			if err != nil {
				return rs, nil, err
			}
			for _, e := range tx.Endorsements {
				t0 := time.Now()
				id, err := cryptoid.UnmarshalIdentity(e.Endorser)
				if err == nil {
					// VerifySignature runs MSP.VerifyIdentity first, as
					// the committing peer does.
					err = d.msp.VerifySignature(id, payload, e.Signature)
				}
				verifyNs += time.Since(t0)
				if err != nil {
					return rs, nil, fmt.Errorf("replay: endorsement of %s: %w", tx.ID, err)
				}
				endorsements++
			}
		}
		t0 := time.Now()
		raw, err := b.Marshal()
		if err == nil {
			_, err = ledger.UnmarshalBlock(raw)
		}
		decodeNs += time.Since(t0)
		if err != nil {
			return rs, nil, fmt.Errorf("replay: decoding block %d: %w", b.Header.Number, err)
		}
	}
	if endorsements > 0 {
		rs.verifyUs = float64(verifyNs) / 1e3 / float64(endorsements)
	}
	rs.decodeUs = float64(decodeNs) / 1e3 / nb

	var loads, stores []time.Duration
	deadline := time.Now().Add(500 * time.Millisecond)
	for len(loads) < 5 || (len(loads) < 200 && time.Now().Before(deadline)) {
		dc := jsoncrdt.NewDoc("replay")
		t0 := time.Now()
		if err := dc.UnmarshalBinary(doc); err != nil {
			return rs, nil, fmt.Errorf("replay: loading %s: %w", docKey, err)
		}
		t1 := time.Now()
		if _, err := dc.MarshalBinary(); err != nil {
			return rs, nil, fmt.Errorf("replay: storing %s: %w", docKey, err)
		}
		loads = append(loads, t1.Sub(t0))
		stores = append(stores, time.Since(t1))
	}
	rs.docLoadUs = median(loads)
	rs.docStoreUs = median(stores)

	db, err := rp.DBOn(d.ch)
	if err != nil {
		return rs, nil, err
	}
	return rs, append([]byte(nil), db.GetMeta(core.MetaPrefix+docKey)...), nil
}
