package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"fabriccrdt/internal/chaincode"
	"fabriccrdt/internal/client"
	"fabriccrdt/internal/cryptoid"
	"fabriccrdt/internal/fabricnet"
	"fabriccrdt/internal/ledger"
	"fabriccrdt/internal/obs"
	"fabriccrdt/internal/peer"
	"fabriccrdt/internal/transport"
	"fabriccrdt/internal/wire"
	"fabriccrdt/internal/workload"
)

const (
	chaincodeName = "iot"
	policy        = "OR('Org1.member','Org2.member','Org3.member')"
	// clientOrg is the submitting clients' organization. The network's
	// org CAs are private to fabricnet, so the clients get a CA of their
	// own, registered with the network's MSP. Every client is endorsed
	// by, and listens for commits at, Org1's anchor peer.
	clientOrg = "Clients"
	anchorOrg = "Org1"
	// stateCacheBytes is the cold-keys LSM block cache: smaller than the
	// state each peer holds by the end of a run.
	stateCacheBytes = 256 << 10
)

// readChaincode wraps the IoT chaincode with one read-only function:
// "get <key>" reads the device document and writes nothing. Every other
// invocation is the paper's IoT chaincode unchanged.
func readChaincode(gen *workload.IoTGenerator) chaincode.Chaincode {
	write := gen.Chaincode()
	return chaincode.Func(func(stub chaincode.Stub) error {
		fn, params := stub.Function()
		if fn != "get" {
			return write.Invoke(stub)
		}
		if len(params) != 1 {
			return fmt.Errorf("get: want 1 key, got %d", len(params))
		}
		_, err := stub.GetState(params[0])
		return err
	})
}

// endorser adapts a client-side transport to client.Endorser.
type endorser struct {
	transport.Transport
	name string
}

func (e endorser) MSPID() string { return anchorOrg }
func (e endorser) Name() string  { return e.name }

// waiter completes one submitted write when its commit event arrives.
type waiter func(ev peer.CommitEvent, at time.Time)

// deployment is one built, started and warmed-up network with its clients.
type deployment struct {
	w      workloadSpec
	gen    *workload.IoTGenerator
	net    *fabricnet.Network
	ch     string
	anchor *peer.Peer
	ca     *cryptoid.CA
	msp    *cryptoid.MSP
	dir    string // LSM data directory (cold-keys only)
	// committer is the peers' commit configuration, reused by the replay.
	committer peer.CommitterConfig
	server    *wire.Server
	tap       *tap // traced runs only

	// clients[k] submits through trs[k]: the in-process node, or one wire
	// connection per submitter.
	clients []*client.Client
	trs     []transport.Transport

	dialMu  sync.Mutex
	dialed  []*wire.Client // deliver-side wire clients
	dialErr error

	mu      sync.Mutex
	waiting map[string]waiter

	listeners sync.WaitGroup
	warm      []opRec // the warm-up's records
}

// submitters is the number of submitter goroutines and client
// connections: one per CPU.
func submitters() int { return runtime.NumCPU() }

// setup builds the network for w (under workdir when it needs a data
// directory), installs the chaincode, starts it, connects the clients and
// commits one warm-up block.
func setup(w workloadSpec, workdir string, tr *tap) (*deployment, error) {
	d := &deployment{
		w:       w,
		gen:     workload.NewIoT(workload.IoTParams{ConflictPct: w.conflictPct, Seed: 1}),
		tap:     tr,
		waiting: make(map[string]waiter),
	}
	if err := d.build(workdir); err != nil {
		d.teardown()
		return nil, err
	}
	if err := d.warmup(); err != nil {
		d.teardown()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return d, nil
}

func (d *deployment) build(workdir string) error {
	cfg := fabricnet.PaperConfig(blockTxs, true)
	if d.w.wire {
		dir, err := os.MkdirTemp(workdir, d.w.name+"-")
		if err != nil {
			return err
		}
		d.dir = dir
		cfg.Committer = peer.CommitterConfig{
			Backend:         peer.BackendLSM,
			DataDir:         dir,
			PersistBlocks:   peer.PersistBlocksOn,
			SyncEveryApply:  false,
			StateCacheBytes: stateCacheBytes,
		}
	}
	var addr string // the wire server's address, known before Start
	wrap := func(peerName, channelID string, base transport.Transport) transport.Transport {
		tr := base
		if d.w.wire {
			c, err := wire.Dial(addr, wire.ClientConfig{})
			d.dialMu.Lock()
			if err != nil {
				d.dialErr = errors.Join(d.dialErr, err)
			} else {
				d.dialed = append(d.dialed, c)
				tr = c
			}
			d.dialMu.Unlock()
		}
		if d.tap != nil {
			tr = d.tap.wrap(peerName, tr)
		}
		return tr
	}
	if d.w.wire || d.tap != nil {
		cfg.TransportWrap = wrap
	}
	d.committer = cfg.Committer
	n, err := fabricnet.New(cfg)
	if err != nil {
		return err
	}
	d.net = n
	d.msp = n.MSP()
	d.ch = n.DefaultChannel()
	if err := n.InstallChaincode(chaincodeName, readChaincode(d.gen), policy); err != nil {
		return err
	}
	if d.anchor, err = n.AnchorPeer(anchorOrg); err != nil {
		return err
	}
	if d.ca, err = cryptoid.NewCA(clientOrg); err != nil {
		return err
	}
	n.MSP().AddOrg(clientOrg, d.ca.PublicKey())

	// The client-facing endpoint: endorsement at the anchor peer,
	// broadcast to the orderer, deliver from the network's histories.
	base := n.Node()
	node := &transport.Node{
		NodeInfo:   base.NodeInfo,
		Histories:  base.Histories,
		Broadcasts: base.Broadcasts,
		Endorser:   d.anchor,
	}
	if d.w.wire {
		d.server = wire.NewServer(node, node.NodeInfo)
		a, err := d.server.Listen("127.0.0.1:0")
		if err != nil {
			return err
		}
		addr = a.String()
	}
	d.listen()
	n.Start()
	d.dialMu.Lock()
	dialErr := d.dialErr
	d.dialMu.Unlock()
	if dialErr != nil {
		return fmt.Errorf("dialing deliver streams: %w", dialErr)
	}
	for k := 0; k < submitters(); k++ {
		var tr transport.Transport = node
		if d.w.wire {
			c, err := wire.Dial(addr, wire.ClientConfig{})
			if err != nil {
				return err
			}
			tr = c
		}
		d.trs = append(d.trs, tr)
		signer, err := d.ca.Issue(fmt.Sprintf("submitter-%d", k))
		if err != nil {
			return err
		}
		e := endorser{Transport: tr, name: d.anchor.Name()}
		d.clients = append(d.clients, client.New(signer, d.ch, []client.Endorser{e}, tr))
	}
	return nil
}

// listen consumes the anchor peer's commit events (the submitting org's
// view of commits) and, in traced runs, every other peer's, to time each
// peer's commit of each block.
func (d *deployment) listen() {
	for _, p := range d.net.Peers() {
		if p != d.anchor && d.tap == nil {
			continue
		}
		events := p.Events()
		d.listeners.Add(1)
		go func(p *peer.Peer) {
			defer d.listeners.Done()
			for ev := range events {
				at := time.Now()
				if d.tap != nil {
					d.tap.committed(p.Name(), ev.BlockNum, at)
				}
				if p != d.anchor {
					continue
				}
				d.mu.Lock()
				w := d.waiting[ev.TxID]
				delete(d.waiting, ev.TxID)
				d.mu.Unlock()
				if w != nil {
					w(ev, at)
				}
			}
		}(p)
	}
}

// tracer is the traced run's span recorder; nil (recording nothing) when
// untraced.
func (d *deployment) tracer() *obs.Tracer {
	if d.tap == nil {
		return nil
	}
	return d.tap.tracer
}

// expect registers fn to run on txID's commit event.
func (d *deployment) expect(txID string, fn waiter) {
	d.mu.Lock()
	d.waiting[txID] = fn
	d.mu.Unlock()
}

// forget drops a registration whose broadcast failed.
func (d *deployment) forget(txID string) {
	d.mu.Lock()
	delete(d.waiting, txID)
	d.mu.Unlock()
}

// keyOf is the device document spec index idx writes (and reads target).
func (d *deployment) keyOf(idx int) string {
	return d.gen.Spec(idx).Writes[0].Key
}

// warmup commits one full block of writes (spec indices [0, warmupWrites))
// and answers one read per submitter, so lazy set-up is done before timing.
func (d *deployment) warmup() error {
	ops := make([]op, 0, warmupWrites+len(d.clients))
	for i := 0; i < warmupWrites; i++ {
		ops = append(ops, op{kind: opWrite, idx: i})
	}
	for range d.clients {
		ops = append(ops, op{kind: opRead, idx: 0})
	}
	res := d.run(ops, time.Time{}, warmupWrites)
	d.warm = res.recs
	for _, r := range res.recs {
		if !r.ok {
			return fmt.Errorf("a warm-up %s failed: %s", r.kind, r.errMsg)
		}
	}
	return nil
}

// waitHeights waits until every peer has committed as many blocks as the
// anchor.
func (d *deployment) waitHeights(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		want, err := d.anchor.HeightOn(d.ch)
		if err != nil {
			return err
		}
		behind := ""
		for _, p := range d.net.Peers() {
			h, err := p.HeightOn(d.ch)
			if err != nil {
				return err
			}
			if h != want {
				behind = fmt.Sprintf("%s at height %d, anchor at %d", p.Name(), h, want)
			}
		}
		if behind == "" {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("peers did not converge: %s", behind)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop shuts the network down (flushing the orderers and draining every
// deliver loop), then the listeners, the wire server and the client
// connections. It returns the network's fatal errors.
func (d *deployment) stop() error {
	if d.net == nil {
		return nil
	}
	d.net.Stop()
	d.listeners.Wait()
	if d.server != nil {
		d.server.Close()
	}
	for _, tr := range d.trs {
		if c, ok := tr.(*wire.Client); ok {
			c.Close()
		}
	}
	d.dialMu.Lock()
	for _, c := range d.dialed {
		c.Close()
	}
	d.dialMu.Unlock()
	err := d.net.Err()
	d.net = nil
	return err
}

// teardown stops the deployment and removes its data directory.
func (d *deployment) teardown() error {
	err := d.stop()
	if d.dir != "" {
		err = errors.Join(err, os.RemoveAll(d.dir))
	}
	return err
}

// chainBlocks returns the anchor's committed blocks after genesis.
func (d *deployment) chainBlocks() ([]*ledger.Block, error) {
	chain, err := d.anchor.ChainOn(d.ch)
	if err != nil {
		return nil, err
	}
	h := chain.Height()
	out := make([]*ledger.Block, 0, h)
	for n := uint64(1); n < h; n++ {
		b, err := chain.Get(n)
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	return out, nil
}

// runDir creates this run's working directory under root.
func runDir(root string) (string, error) {
	dir := filepath.Join(root, fmt.Sprintf("run-%d", os.Getpid()))
	return dir, os.MkdirAll(dir, 0o755)
}
