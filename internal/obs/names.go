package obs

// This file is the single catalog of registry metric names. Every name
// must match ^fabriccrdt_[a-z0-9_]+$ and be declared exactly once, no
// .go file outside internal/obs may contain a "fabriccrdt_..." string
// literal (call sites reference these constants; the obs tests exercise
// the registry with literals), and every constant here must be
// referenced somewhere — all enforced by the metricnames analyzer
// (internal/lint), which runs as part of `make lint`. See
// docs/OBSERVABILITY.md for the full catalog with types and labels.
const (
	// Commit path (per-peer registries; labels peer, channel).
	MetricCommitStageSeconds  = "fabriccrdt_commit_stage_seconds"   // histogram{peer,channel,stage}
	MetricPeerBlockHeight     = "fabriccrdt_peer_block_height"      // gauge{peer,channel}
	MetricPeerBlocksCommitted = "fabriccrdt_peer_blocks_total"      // counter{peer,channel}
	MetricPeerTxsCommitted    = "fabriccrdt_peer_txs_total"         // counter{peer,channel,result}
	MetricPeerEventQueueDepth = "fabriccrdt_peer_event_queue_depth" // gauge{peer}
	MetricPeerEventListeners  = "fabriccrdt_peer_event_listeners"   // gauge{peer}

	// State and block stores (per-peer registries; labels peer, channel).
	MetricStatedbKeys        = "fabriccrdt_statedb_keys"               // gauge{peer,channel}
	MetricStatedbLogBytes    = "fabriccrdt_statedb_log_bytes"          // gauge{peer,channel}
	MetricStatedbAppends     = "fabriccrdt_statedb_appends_total"      // counter{peer,channel}
	MetricStatedbFsyncs      = "fabriccrdt_statedb_fsyncs_total"       // counter{peer,channel}
	MetricStatedbCompactions = "fabriccrdt_statedb_compactions_total"  // counter{peer,channel}
	MetricStatedbFlushes     = "fabriccrdt_statedb_flushes_total"      // counter{peer,channel} (LSM)
	MetricStatedbRuns        = "fabriccrdt_statedb_runs"               // gauge{peer,channel} (LSM)
	MetricStatedbCacheHits   = "fabriccrdt_statedb_cache_hits_total"   // counter{peer,channel} (LSM)
	MetricStatedbCacheMisses = "fabriccrdt_statedb_cache_misses_total" // counter{peer,channel} (LSM)
	MetricBlockstoreHeight   = "fabriccrdt_blockstore_height"          // gauge{peer,channel}
	MetricBlockstoreLogBytes = "fabriccrdt_blockstore_log_bytes"       // gauge{peer,channel}
	MetricBlockstoreAppends  = "fabriccrdt_blockstore_appends_total"   // counter{peer,channel}
	MetricBlockstoreFsyncs   = "fabriccrdt_blockstore_fsyncs_total"    // counter{peer,channel}

	// Unbounded handoff queues (scrape-time depth gauges).
	MetricOrdererQueueDepth  = "fabriccrdt_orderer_fanout_queue_depth" // gauge{channel}
	MetricHistoryLagBlocks   = "fabriccrdt_history_lag_blocks"         // gauge{channel}
	MetricHistoryStreams     = "fabriccrdt_history_streams"            // gauge{channel}
	MetricWireCallQueueDepth = "fabriccrdt_wire_call_queue_depth"      // gauge (client side)

	// Wire transport (process-global Default registry).
	MetricWireFrames      = "fabriccrdt_wire_frames_total"       // counter{side,dir}
	MetricWireBytes       = "fabriccrdt_wire_bytes_total"        // counter{side,dir}
	MetricWireFrameErrors = "fabriccrdt_wire_frame_errors_total" // counter{side}
	MetricWireReconnects  = "fabriccrdt_wire_reconnects_total"   // counter
	MetricDeliverRetries  = "fabriccrdt_deliver_retries_total"   // counter
	MetricTransportCalls  = "fabriccrdt_transport_calls_total"   // counter{op}
)
