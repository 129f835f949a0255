// Multi-process roles: -role orderer|peer|client split the in-process
// network into separate OS processes talking over the wire transport
// (internal/wire) — framed, checksummed TCP carrying the same four streams
// (Deliver, Broadcast, Endorse, Submit) the in-process Node serves.
//
//	fabricnet -role orderer -listen 127.0.0.1:7050 -block 10 -batch-timeout 500ms
//	fabricnet -role peer -name Org1.peer0 -org Org1 -listen 127.0.0.1:7051 \
//	    -connect 127.0.0.1:7050 -backend lsm -datadir ./peer0
//	fabricnet -role client -org Org1 -connect 127.0.0.1:7051 -txs 20
//
// Organization trust crosses the process boundary through a deterministic
// CA seed (-ca-seed): every process derives the same Org1/Org2/Org3 roots
// from it (cryptoid.NewDeterministicCA), standing in for distributed cert
// files. Member keys stay random per process.
//
// The orderer role is in-memory: it chains after each channel's genesis
// block and retains every block it cuts, so peers (fresh or restarted from
// a -datadir checkpoint) catch up over the wire from any height. Restarting
// the ORDERER resets block numbering — pair a fresh orderer with fresh peer
// data directories. Restarting a PEER against a running orderer is the
// supported recovery path: it resumes from its durable checkpoint,
// reconnects, and the deliver loop fast-forwards it to the tail.
package main

import (
	"fmt"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"fabriccrdt/internal/client"
	"fabriccrdt/internal/cryptoid"
	"fabriccrdt/internal/endorse"
	"fabriccrdt/internal/ledger"
	"fabriccrdt/internal/obs"
	"fabriccrdt/internal/orderer"
	"fabriccrdt/internal/peer"
	"fabriccrdt/internal/transport"
	"fabriccrdt/internal/wire"
	"fabriccrdt/internal/workload"
)

// wirePolicy is the endorsement policy the multi-process demo installs —
// any one organization's endorsement suffices, so a client endorsing
// through a single remote peer produces committable transactions.
const wirePolicy = "OR('Org1.member','Org2.member','Org3.member')"

// demoOrgs are the organizations whose CA roots every process derives.
var demoOrgs = []string{"Org1", "Org2", "Org3"}

// roleOpts carries the flag values the role runners need.
type roleOpts struct {
	role         string
	listen       string
	connect      string
	name         string
	org          string
	caSeed       string
	channels     []string
	blockSize    int
	batchTimeout time.Duration
	enableCRDT   bool
	txs          int
	gen          *workload.IoTGenerator
	committer    peer.CommitterConfig
	metricsAddr  string
	traceOut     string
	queueWarn    int
}

// runRole dispatches to the named role runner.
func runRole(o roleOpts) error {
	switch o.role {
	case "orderer":
		return runOrderer(o)
	case "peer":
		return runPeer(o)
	case "client":
		return runClient(o)
	default:
		return fmt.Errorf("unknown -role %q (want orderer, peer or client)", o.role)
	}
}

// demoMSP derives the shared organization roots from the CA seed and
// returns the MSP plus each org's CA.
func demoMSP(seed string) (*cryptoid.MSP, map[string]*cryptoid.CA) {
	msp := cryptoid.NewMSP()
	cas := make(map[string]*cryptoid.CA, len(demoOrgs))
	for _, org := range demoOrgs {
		ca := cryptoid.NewDeterministicCA(org, seed)
		cas[org] = ca
		msp.AddOrg(org, ca.PublicKey())
	}
	return msp, cas
}

// awaitSignal blocks until SIGINT or SIGTERM.
func awaitSignal() os.Signal {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	return <-sig
}

// runOrderer serves the ordering side of every channel over one listener:
// each channel gets its own ordering service feeding an in-memory History,
// and the wire server exposes Deliver (the histories) and Broadcast (the
// services) to any number of peer and client processes.
func runOrderer(o roleOpts) error {
	if o.listen == "" {
		return fmt.Errorf("-role orderer requires -listen")
	}
	cfg := orderer.DefaultConfig(o.blockSize)
	cfg.BatchTimeout = o.batchTimeout

	histories := make(map[string]*transport.History, len(o.channels))
	broadcasts := make(map[string]transport.Broadcaster, len(o.channels))
	services := make([]*orderer.Service, 0, len(o.channels))
	reg := obs.NewRegistry()
	var feeders sync.WaitGroup
	for _, id := range o.channels {
		genesis, err := ledger.NewChain(id).Get(0)
		if err != nil {
			return err
		}
		svc := orderer.NewService(cfg, genesis)
		svc.SetLabel(id)
		services = append(services, svc)
		h := transport.NewHistory(1)
		h.SetLabel(id)
		histories[id] = h
		broadcasts[id] = svc
		reg.GaugeFunc(obs.MetricOrdererQueueDepth,
			func() float64 { return float64(svc.QueueDepth()) }, "channel", id)
		reg.GaugeFunc(obs.MetricHistoryLagBlocks,
			func() float64 { return float64(h.MaxLag()) }, "channel", id)
		reg.GaugeFunc(obs.MetricHistoryStreams,
			func() float64 { return float64(h.Streams()) }, "channel", id)
		sub := svc.Subscribe()
		feeders.Add(1)
		go func(id string, h *transport.History) {
			defer feeders.Done()
			defer h.Close()
			for b := range sub {
				if err := h.Append(b); err != nil {
					fmt.Fprintf(os.Stderr, "fabricnet: orderer %s history: %v\n", id, err)
					return
				}
			}
		}(id, h)
	}

	node := &transport.Node{
		NodeInfo:   transport.Info{Name: "orderer", Channels: o.channels},
		Histories:  histories,
		Broadcasts: broadcasts,
	}
	ob, err := startObs("orderer", o.metricsAddr, o.traceOut, o.queueWarn, obs.Default(), reg)
	if err != nil {
		return err
	}
	srv := wire.NewServer(node, node.NodeInfo)
	addr, err := srv.Listen(o.listen)
	if err != nil {
		return err
	}
	fmt.Printf("fabricnet: orderer listening on %s\n", addr)
	ob.setReady()

	s := awaitSignal()
	fmt.Printf("fabricnet: orderer shutting down (%v)\n", s)
	for _, svc := range services {
		svc.Stop()
	}
	feeders.Wait()
	srv.Close()
	ob.shutdown()
	fmt.Println("fabricnet: orderer shut down cleanly")
	return nil
}

// dialWithRetry dials the given wire endpoint, retrying while the remote
// process is still coming up.
func dialWithRetry(addr string, patience time.Duration) (*wire.Client, error) {
	deadline := time.Now().Add(patience)
	for {
		c, err := wire.Dial(addr, wire.ClientConfig{})
		if err == nil {
			return c, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("dialing %s: %w", addr, err)
		}
		time.Sleep(250 * time.Millisecond)
	}
}

// runPeer runs one peer process: it commits blocks delivered from the
// orderer (-connect) through the standard deliver loop — resuming from its
// durable checkpoint when -backend lsm reopens an existing -datadir — and
// serves its own wire endpoint (-listen): Endorse, a gateway Submit
// (broadcast to the orderer + wait for local commit), Broadcast forwarded
// to the orderer, and Deliver backed by its own chain, so other processes
// can sync the full history from this peer.
func runPeer(o roleOpts) error {
	if o.listen == "" || o.connect == "" {
		return fmt.Errorf("-role peer requires -listen and -connect (orderer address)")
	}
	name := o.name
	if name == "" {
		name = o.org + ".peer0"
	}
	msp, cas := demoMSP(o.caSeed)
	ca, ok := cas[o.org]
	if !ok {
		return fmt.Errorf("-org %q is not a demo organization %v", o.org, demoOrgs)
	}
	signer, err := ca.Issue(name)
	if err != nil {
		return err
	}
	p, err := peer.New(peer.Config{
		Name:       name,
		MSPID:      o.org,
		Channels:   o.channels,
		EnableCRDT: o.enableCRDT,
		Committer:  o.committer,
	}, signer, msp)
	if err != nil {
		return err
	}
	defer p.Close()
	p.InstallChaincode("iot", o.gen.Chaincode(), endorse.MustParse(wirePolicy))
	for _, id := range o.channels {
		if h, err := p.HeightOn(id); err == nil && h > 0 {
			fmt.Printf("fabricnet: %s resumed %s at height %d\n", name, id, h)
		}
	}

	oc, err := dialWithRetry(o.connect, 30*time.Second)
	if err != nil {
		return err
	}
	defer oc.Close()

	// The peer's own endpoint: chain-backed histories (a restarted peer
	// with the block store serves its FULL history), endorsement, a
	// gateway Submit, and Broadcast relayed to the orderer.
	histories := make(map[string]*transport.History, len(o.channels))
	broadcasts := make(map[string]transport.Broadcaster, len(o.channels))
	reg := obs.NewRegistry()
	for _, id := range o.channels {
		chain, err := p.ChainOn(id)
		if err != nil {
			return err
		}
		h := transport.NewSourceHistory(chain)
		h.SetLabel(id)
		histories[id] = h
		broadcasts[id] = oc
		reg.GaugeFunc(obs.MetricHistoryLagBlocks,
			func() float64 { return float64(h.MaxLag()) }, "channel", id)
		reg.GaugeFunc(obs.MetricHistoryStreams,
			func() float64 { return float64(h.Streams()) }, "channel", id)
	}
	gw := transport.NewGateway(p, oc, 30*time.Second)
	node := &transport.Node{
		NodeInfo:   transport.Info{Name: name, MSPID: o.org, Channels: o.channels},
		Histories:  histories,
		Broadcasts: broadcasts,
		Endorser:   p,
		Submitter:  gw,
	}
	ob, err := startObs(name, o.metricsAddr, o.traceOut, o.queueWarn, obs.Default(), p.Metrics(), reg)
	if err != nil {
		return err
	}
	srv := wire.NewServer(node, node.NodeInfo)
	addr, err := srv.Listen(o.listen)
	if err != nil {
		return err
	}
	fmt.Printf("fabricnet: peer %s listening on %s\n", name, addr)
	// Every channel resumed (peer.New restores the durable checkpoints) and
	// both listeners are up: the peer is ready.
	ob.setReady()

	// Publish each committed block to the served histories and report it —
	// the line the multi-process harness (and a human in a terminal) uses
	// to watch the peer catch up.
	events := p.Events()
	reporterDone := make(chan struct{})
	go func() {
		defer close(reporterDone)
		last := make(map[string]uint64)
		for ev := range events {
			if h, ok := histories[ev.ChannelID]; ok {
				h.Advance(ev.BlockNum)
			}
			if ev.BlockNum > last[ev.ChannelID] {
				last[ev.ChannelID] = ev.BlockNum
				fmt.Printf("fabricnet: %s committed block %d on %s\n", name, ev.BlockNum, ev.ChannelID)
			}
		}
	}()

	// One deliver loop per channel; retryable transport failures reconnect
	// forever (MaxRetries 0), fatal errors bring the process down loudly.
	stop := make(chan struct{})
	fatalErr := make(chan error, len(o.channels))
	var loops sync.WaitGroup
	for _, id := range o.channels {
		loops.Add(1)
		go func(id string) {
			defer loops.Done()
			err := transport.DeliverToPeer(oc, p, transport.DeliverConfig{
				ChannelID: id,
				Depth:     o.committer.Pipeline,
				OnRetry: func(err error) {
					fmt.Printf("fabricnet: %s deliver retry on %s: %v\n", name, id, err)
				},
			}, stop)
			if err != nil {
				fatalErr <- err
			}
		}(id)
	}

	var runErr error
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		fmt.Printf("fabricnet: peer %s shutting down (%v)\n", name, s)
	case runErr = <-fatalErr:
	}
	close(stop)
	oc.Close() // unblocks deliver streams and in-flight gateway broadcasts
	loops.Wait()
	srv.Close()
	p.CloseEvents()
	<-reporterDone
	ob.shutdown() // after the pipelines drain, so the last spans are in the dump
	if err := p.Close(); err != nil && runErr == nil {
		runErr = err
	}
	if runErr != nil {
		return runErr
	}
	fmt.Printf("fabricnet: peer %s shut down cleanly\n", name)
	return nil
}

// remoteEndorser adapts a wire client to the SDK's Endorser interface: the
// handshake Info supplies the remote peer's identity for policy purposes.
type remoteEndorser struct{ c *wire.Client }

func (r remoteEndorser) Endorse(prop peer.Proposal) (peer.ProposalResponse, error) {
	return r.c.Endorse(prop)
}
func (r remoteEndorser) MSPID() string { return r.c.Info().MSPID }
func (r remoteEndorser) Name() string  { return r.c.Info().Name }

// runClient submits -txs workload transactions through remote peers: every
// -connect address endorses each proposal (responses are cross-checked by
// the SDK), and the first address's gateway Submit stream carries the
// envelope to ordering and returns the commit event.
func runClient(o roleOpts) error {
	if o.connect == "" {
		return fmt.Errorf("-role client requires -connect (comma-separated peer addresses)")
	}
	name := o.name
	if name == "" {
		name = "wire-client"
	}
	_, cas := demoMSP(o.caSeed)
	ca, ok := cas[o.org]
	if !ok {
		return fmt.Errorf("-org %q is not a demo organization %v", o.org, demoOrgs)
	}
	signer, err := ca.Issue(name)
	if err != nil {
		return err
	}
	ob, err := startObs(name, o.metricsAddr, o.traceOut, o.queueWarn, obs.Default())
	if err != nil {
		return err
	}
	ob.setReady()
	defer ob.shutdown()

	var (
		endorsers []client.Endorser
		gateway   *wire.Client
	)
	for _, addr := range strings.Split(o.connect, ",") {
		wc, err := dialWithRetry(strings.TrimSpace(addr), 30*time.Second)
		if err != nil {
			return err
		}
		defer wc.Close()
		endorsers = append(endorsers, remoteEndorser{c: wc})
		if gateway == nil {
			gateway = wc
		}
	}

	// One SDK client per channel (a client binds one channel); the
	// workload generator's channel mix routes each transaction.
	clients := make(map[string]*client.Client, len(o.channels))
	for _, id := range o.channels {
		clients[id] = client.New(signer, id, endorsers, nil)
	}

	var (
		mu        sync.Mutex
		codes     = make(map[string]int)
		heights   = make(map[string]uint64)
		committed int
		failures  int
		firstErr  error
	)
	var wg sync.WaitGroup
	for i := 0; i < o.txs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ch := o.gen.ChannelFor(i)
			if ch == "" {
				ch = o.channels[0]
			}
			tx, err := clients[ch].Prepare("iot", workload.SpecArgs(i)...)
			var ev peer.CommitEvent
			if err == nil {
				ev, err = gateway.Submit(tx)
			}
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				failures++
				if firstErr == nil {
					firstErr = err
				}
				return
			}
			codes[ev.Code.String()]++
			if ev.Code.Committed() {
				committed++
			}
			if ev.BlockNum > heights[ch] {
				heights[ch] = ev.BlockNum
			}
		}(i)
	}
	wg.Wait()

	for ch, h := range heights {
		fmt.Printf("fabricnet: client saw height %d on %s\n", h, ch)
	}
	fmt.Printf("fabricnet: client done: %d/%d committed\n", committed, o.txs)
	if firstErr != nil {
		return fmt.Errorf("client: %d submissions failed, first: %w", failures, firstErr)
	}
	if committed == 0 && o.txs > 0 {
		return fmt.Errorf("client: no transaction committed")
	}
	return nil
}
