// Command fabricnet runs a live in-process Fabric/FabricCRDT network — the
// paper's 3-org × 2-peer topology with real goroutine peers, per-channel
// batching orderers and ed25519 endorsements — drives the paper's IoT
// workload (internal/workload, the Caliper stand-in) through it, and
// reports Caliper-style metrics.
//
// Usage:
//
//	fabricnet                    # FabricCRDT, 500 txs at 200 tx/s over 2 channels
//	fabricnet -crdt=false        # stock Fabric (watch transactions fail)
//	fabricnet -txs 2000 -rate 400 -block 50 -clients 8 -conflict 40
//	fabricnet -channels channel1,channel2,channel3,channel4   # 4-way sharding
//	fabricnet -backend lsm -datadir ./net-state     # persistent peers
//	fabricnet -pipeline 4 -backend lsm -datadir ./net-state -fsync
//	                             # durable peers, commits pipelined 4 deep
//	fabricnet -backend lsm -datadir ./net-state -persist-blocks=false
//	                             # state checkpoint only, no block bodies
//	fabricnet -backend lsm -datadir ./net-state -state-cache 64
//	                             # 64 MiB state block cache per channel
//	                             # (docs/STATEDB.md)
//
// Channels are the sharding unit: the workload generator assigns each
// transaction a channel round-robin (workload.IoTParams.Channels), clients
// submit through multi-channel clients, every channel orders and commits
// independently, and the run reports per-channel block heights. With
// -backend lsm, rerunning with the same -datadir restores every peer's
// world state and resumes each channel from its own recorded block height;
// block bodies persist too by default (-persist-blocks), so restarted
// peers keep serving their full history and can rebuild their world state
// from block 0 (docs/PERSISTENCE.md). The lsm backend keeps its resident
// memory independent of the keyspace — world state can outgrow RAM,
// bounded by the -state-cache block cache.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"fabriccrdt"

	"fabriccrdt/internal/ledger"
	"fabriccrdt/internal/obs"
	"fabriccrdt/internal/workload"
)

func main() {
	var (
		enableCRDT  = flag.Bool("crdt", true, "run FabricCRDT (false = stock Fabric)")
		totalTx     = flag.Int("txs", 500, "total transactions to submit")
		rate        = flag.Float64("rate", 200, "aggregate submission rate (tx/s)")
		blockSize   = flag.Int("block", 25, "orderer max transactions per block")
		clients     = flag.Int("clients", 4, "number of concurrent multi-channel clients")
		channelList = flag.String("channels", "channel1,channel2", "comma-separated channel list; each channel gets its own orderer and per-peer commit pipeline")
		conflict    = flag.Int("conflict", 100, "percentage of transactions targeting each channel's shared hot key (paper Table 5)")
		workers     = flag.Int("workers", 0, "commit-pipeline workers per peer per channel (0 = adaptive: NumCPU spread across channels)")
		pipeline    = flag.Int("pipeline", 1, "async commit pipeline depth per (peer, channel): how many delivered blocks are decoded and endorsement-validated ahead of the serialized commit stage (0 = synchronous; outcomes are identical at every depth)")
		backend     = flag.String("backend", "", "state backend per peer: memory|lsm (default: memory)")
		datadir     = flag.String("datadir", "", "data directory for -backend lsm (one subdirectory per peer, then per channel)")
		fsync       = flag.Bool("fsync", false, "fsync each peer's state log (and block log) after every committed block (-backend lsm only): closes the power-loss window; the async pipeline hides the added latency")
		persist     = flag.Bool("persist-blocks", true, "persist committed block bodies in each peer's durable block store (-backend lsm only): restarted peers then serve their full history to lagging peers and can rebuild their world state from block 0")
		stateCache  = flag.Int("state-cache", 0, "LSM block cache size in MiB per peer per channel (-backend lsm only; 0 = the 32 MiB default): bounds the memory spent caching sorted-run blocks for reads")
		timings     = flag.Bool("timings", false, "print per-stage commit latencies per peer")

		// Observability (docs/OBSERVABILITY.md), available in every role and
		// the in-process benchmark.
		metricsAddr = flag.String("metrics-addr", "", "HTTP listen address serving /metrics (Prometheus text), /healthz, /readyz and /debug/pprof (e.g. 127.0.0.1:9090; empty = disabled)")
		traceOut    = flag.String("trace-out", "", "enable transaction tracing and write a Chrome trace-event JSON file here on shutdown (load it at chrome://tracing or https://ui.perfetto.dev)")
		queueWarn   = flag.Int("queue-warn", obs.DefaultQueueWarnDepth, "log a rate-limited warning when any unbounded handoff queue exceeds this depth (0 disables)")

		// Multi-process roles (see roles.go): split the network into
		// separate OS processes over the wire transport.
		role         = flag.String("role", "", "multi-process role: orderer, peer or client (empty = in-process benchmark)")
		listen       = flag.String("listen", "", "wire listen address for -role orderer/peer (e.g. 127.0.0.1:7050, port 0 picks one)")
		connect      = flag.String("connect", "", "wire address to connect to: the orderer for -role peer, comma-separated peers for -role client")
		nodeName     = flag.String("name", "", "node name for -role peer (default <org>.peer0) or client")
		org          = flag.String("org", "Org1", "organization for -role peer/client (Org1, Org2 or Org3)")
		caSeed       = flag.String("ca-seed", "fabricnet-demo", "shared deterministic CA seed: every process started with the same seed derives the same organization roots")
		batchTimeout = flag.Duration("batch-timeout", 2*time.Second, "orderer batch timeout (paper: 2s)")
	)
	flag.Parse()
	persistSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "persist-blocks" {
			persistSet = true
		}
	})

	channels, err := parseChannels(*channelList)
	if err != nil {
		fatal(err)
	}

	persistBlocks := fabriccrdt.PersistBlocksAuto
	switch *backend {
	case "", fabriccrdt.BackendMemory:
		if *datadir != "" {
			fatal(fmt.Errorf("-datadir is only used with -backend lsm; nothing would be persisted"))
		}
		if *fsync {
			fatal(fmt.Errorf("-fsync is only used with -backend lsm; there is no log to sync"))
		}
		if persistSet {
			fatal(fmt.Errorf("-persist-blocks is only used with -backend lsm; there is no durable store to hold block bodies"))
		}
	case fabriccrdt.BackendLSM:
		if *datadir == "" {
			fatal(fmt.Errorf("-backend %s requires -datadir", *backend))
		}
		if !*persist {
			persistBlocks = fabriccrdt.PersistBlocksOff
		}
	default:
		fatal(fmt.Errorf("unknown -backend %q (want memory or lsm)", *backend))
	}
	if *stateCache < 0 {
		fatal(fmt.Errorf("-state-cache must be >= 0 MiB (got %d)", *stateCache))
	}
	if *stateCache > 0 && *backend != fabriccrdt.BackendLSM {
		fatal(fmt.Errorf("-state-cache is only used with -backend lsm; the memory backend has no block cache"))
	}
	if *pipeline < 0 {
		fatal(fmt.Errorf("-pipeline must be >= 0 (got %d)", *pipeline))
	}

	// The paper's IoT workload generator is the transaction source: it
	// assigns each transaction its keys (hot vs cold, -conflict) and its
	// channel (round-robin over -channels — the channel-mix knob).
	gen := workload.NewIoT(workload.IoTParams{
		ConflictPct: *conflict,
		Channels:    channels,
		Seed:        42,
	})

	// A -role flag switches from the in-process benchmark to one node of a
	// multi-process deployment over the wire transport (roles.go).
	if *role != "" {
		err := runRole(roleOpts{
			role:         *role,
			listen:       *listen,
			connect:      *connect,
			name:         *nodeName,
			org:          *org,
			caSeed:       *caSeed,
			channels:     channels,
			blockSize:    *blockSize,
			batchTimeout: *batchTimeout,
			enableCRDT:   *enableCRDT,
			txs:          *totalTx,
			gen:          gen,
			metricsAddr:  *metricsAddr,
			traceOut:     *traceOut,
			queueWarn:    *queueWarn,
			committer: fabriccrdt.CommitterConfig{
				Workers:         *workers,
				Pipeline:        *pipeline,
				Backend:         *backend,
				DataDir:         *datadir,
				PersistBlocks:   persistBlocks,
				SyncEveryApply:  *fsync,
				StateCacheBytes: int64(*stateCache) << 20,
			},
		})
		if err != nil {
			fatal(err)
		}
		return
	}

	cfg := fabriccrdt.PaperTopology(*blockSize, *enableCRDT)
	cfg.Channels = channels
	cfg.Orderer.BatchTimeout = *batchTimeout
	cfg.Committer = fabriccrdt.CommitterConfig{
		Workers:         *workers,
		Pipeline:        *pipeline,
		Backend:         *backend,
		DataDir:         *datadir,
		PersistBlocks:   persistBlocks,
		SyncEveryApply:  *fsync,
		StateCacheBytes: int64(*stateCache) << 20,
	}
	net, err := fabriccrdt.NewNetwork(cfg)
	if err != nil {
		fatal(err)
	}
	ob, err := startObs("fabricnet", *metricsAddr, *traceOut, *queueWarn, net.Registries()...)
	if err != nil {
		fatal(err)
	}
	defer ob.shutdown()
	if err := net.InstallChaincode("iot", gen.Chaincode(), "OR('Org1.member','Org2.member','Org3.member')"); err != nil {
		fatal(err)
	}
	net.Start()
	defer net.Stop()
	ob.setReady()

	mode := "FabricCRDT"
	if !*enableCRDT {
		mode = "Fabric"
	}
	fmt.Printf("%s network: 3 orgs x 2 peers, %d channel(s) %v, block size %d, pipeline depth %d, %d clients, %d txs at %.0f tx/s, %d%% conflicting\n",
		mode, len(channels), channels, *blockSize, *pipeline, *clients, *totalTx, *rate, *conflict)
	for _, ch := range channels {
		if h, err := net.Peers()[0].HeightOn(ch); err == nil && h > 0 {
			fmt.Printf("resumed %s from %s: persisted state at block height %d, new blocks continue from %d\n",
				ch, *datadir, h, h+1)
		}
	}

	// Each client is a multi-channel client; transaction i goes to the
	// channel its workload spec names, so the generator's channel mix is
	// what shards the load.
	orgs := []string{"Org1", "Org2", "Org3"}
	mcs := make([]*fabriccrdt.MultiClient, *clients)
	for i := range mcs {
		org := orgs[i%len(orgs)]
		mc, err := net.NewMultiClient(org, fmt.Sprintf("caliper-%d", i), []string{org})
		if err != nil {
			fatal(err)
		}
		mcs[i] = mc
	}

	var (
		mu        sync.Mutex
		codes     = make(map[string]int)
		perChan   = make(map[string]int)
		latencies []time.Duration
	)
	interTx := time.Duration(float64(time.Second) / *rate)
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < *totalTx; i++ {
		// Pace submissions at the configured aggregate rate.
		if sleep := time.Until(start.Add(time.Duration(i) * interTx)); sleep > 0 {
			time.Sleep(sleep)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			mc := mcs[i%len(mcs)]
			ch := gen.ChannelFor(i)
			t0 := time.Now()
			code, err := mc.SubmitAndWait(60*time.Second, ch, "iot", workload.SpecArgs(i)...)
			lat := time.Since(t0)
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err != nil && code == ledger.CodeNotValidated:
				codes["error: "+err.Error()]++
			default:
				codes[code.String()]++
				if code.Committed() {
					latencies = append(latencies, lat)
					perChan[ch]++
				}
			}
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	net.Stop()
	if err := net.Err(); err != nil {
		fatal(err)
	}

	fmt.Printf("\n%d transactions in %v\n", *totalTx, elapsed.Round(time.Millisecond))
	keys := make([]string, 0, len(codes))
	for k := range codes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %-28s %6d\n", k, codes[k])
	}
	if len(latencies) > 0 {
		sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
		var sum time.Duration
		for _, l := range latencies {
			sum += l
		}
		fmt.Printf("successful throughput: %.1f tx/s\n", float64(len(latencies))/elapsed.Seconds())
		fmt.Printf("latency avg/p50/p95:   %v / %v / %v\n",
			(sum / time.Duration(len(latencies))).Round(time.Millisecond),
			latencies[len(latencies)/2].Round(time.Millisecond),
			latencies[len(latencies)*95/100].Round(time.Millisecond))
	}

	// Per-channel outcome: committed txs, block height, and the converged
	// hot-key document on one peer — channels are independent ledgers, so
	// each has its own height and its own copy of the hot device document.
	p := net.Peers()[0]
	hotKey := gen.HotKeys()[0]
	fmt.Printf("\nper-channel state on %s:\n", p.Name())
	for _, ch := range channels {
		height, err := p.HeightOn(ch)
		if err != nil {
			fatal(err)
		}
		line := fmt.Sprintf("  %-12s height %-4d committed %-5d", ch, height, perChan[ch])
		if db, err := p.DBOn(ch); err == nil {
			if vv, ok := db.Get(hotKey); ok {
				if n, ok := readingCount(vv.Value); ok {
					line += fmt.Sprintf(" hot-key readings %d", n)
				}
			}
		}
		fmt.Println(line)
	}
	for _, p := range net.Peers() {
		for _, ch := range channels {
			chain, err := p.ChainOn(ch)
			if err != nil {
				fatal(err)
			}
			if err := chain.Verify(); err != nil {
				fatal(fmt.Errorf("chain verification on %s/%s: %w", p.Name(), ch, err))
			}
		}
	}
	fmt.Printf("all %d peer chains verified on all %d channel(s)\n", len(net.Peers()), len(channels))

	if *timings {
		fmt.Println("\ncommit pipeline stage latencies (avg over committed blocks, all channels):")
		for _, p := range net.Peers() {
			fmt.Printf("  %-12s", p.Name())
			for _, s := range p.CommitTimings() {
				fmt.Printf(" %s=%v", s.Stage, s.Avg.Round(time.Microsecond))
			}
			fmt.Println()
		}
		// Wall-clock vs CPU-time rollup: stages overlap (async pipeline), so
		// CPU above Wall measures the concurrency won.
		fmt.Println("commit totals (wall = elapsed pipeline time, cpu = summed stage work):")
		for _, p := range net.Peers() {
			agg := p.CommitAggregate()
			fmt.Printf("  %-12s wall=%v cpu=%v\n", p.Name(),
				agg.Wall.Round(time.Microsecond), agg.CPU.Round(time.Microsecond))
		}
	}
}

// readingCount extracts the merged hot-key document's reading-list length
// (the workload's Listing 3 shape: "temperatureReadings1").
func readingCount(doc []byte) (int, bool) {
	var parsed map[string]any
	if err := json.Unmarshal(doc, &parsed); err != nil {
		return 0, false
	}
	readings, ok := parsed["temperatureReadings1"].([]any)
	if !ok {
		return 0, false
	}
	return len(readings), true
}

// parseChannels splits and validates the -channels flag: names must be
// non-empty, filesystem-safe and unique.
func parseChannels(list string) ([]string, error) {
	parts := strings.Split(list, ",")
	channels := make([]string, 0, len(parts))
	for _, p := range parts {
		channels = append(channels, strings.TrimSpace(p))
	}
	if err := fabriccrdt.ValidateChannels(channels); err != nil {
		return nil, fmt.Errorf("bad -channels %q: %w", list, err)
	}
	return channels, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fabricnet:", err)
	os.Exit(1)
}
