// Command e2ebench is the repository's end-to-end benchmark. It drives the
// paper's 3-org × 2-peer FabricCRDT network (one channel, block size 25,
// 2 s batch timeout) from one process with an open-loop Poisson generator
// and then a closed-loop write phase, checks the outputs, and prints one
// JSON result line. METRICS.md maps every metric to its layer.
//
//	e2ebench --workload hot-doc|cold-keys --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it runs
// the workload once untraced and once traced, and reports the per-layer
// metrics. It exits non-zero when a correctness check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"fabriccrdt/internal/obs"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"commit_p50_ms", "ms"}, {"commit_p99_ms", "ms"},
	{"read_p50_ms", "ms"},
	{"ok_ratio", "1"}, {"cpu_ms_per_tx", "ms"},
	{"live_heap_mb", "MiB"}, {"setup_s", "s"},
}

// tps_sat and read_p99_ms are reported with the per-layer metrics, from
// the untraced pass of a --trace 1 run: on a shared 2-vCPU host their
// run-to-run spread exceeded the largest bound an end-to-end metric may
// have (METRICS.md). The generator's lateness and the open loop's drain
// come from that pass too.
var untracedLayer = []string{"tps_sat", "read_p99_ms", "bench.late_p99_ms", "bench.drain_ms"}

var perLayer = []metricDef{
	{"tps_sat", "tx/s"}, {"read_p99_ms", "ms"},
	{"bench.late_p99_ms", "ms"}, {"bench.drain_ms", "ms"},
	{"bench.trace_overhead_pct", "%"},
	{"client.prepare_p50_ms", "ms"}, {"client.prepare_p99_ms", "ms"},
	{"orderer.cut_wait_p50_ms", "ms"}, {"orderer.partial_blocks", "count"},
	{"orderer.txs_per_block", "tx/block"},
	{"transport.fanout_p99_ms", "ms"},
	{"wire.bytes_per_tx", "B/tx"}, {"wire.frames_per_tx", "frames/tx"},
	{"peer.commit_p50_ms", "ms"}, {"peer.commit_p99_ms", "ms"},
	{"peer.event_backlog_max", "count"},
	{"peer.stage.decode_ms", "ms"}, {"peer.stage.endorse_ms", "ms"},
	{"peer.stage.schedule_ms", "ms"}, {"peer.stage.merge_ms", "ms"},
	{"peer.stage.mvcc_ms", "ms"}, {"peer.stage.apply_ms", "ms"},
	{"peer.stage.append_ms", "ms"},
	{"replay.prepare_us", "us"}, {"replay.finalize_us", "us"},
	{"replay.prepare_allocs", "allocs"}, {"replay.finalize_allocs", "allocs"},
	{"replay.verify_us", "us"}, {"replay.decode_us", "us"},
	{"replay.doc_load_us", "us"}, {"replay.doc_store_us", "us"},
	{"jsoncrdt.doc_kb", "KiB"},
	{"statedb.flushes", "count"}, {"statedb.compactions", "count"},
	{"statedb.cache_hit_ratio", "1"}, {"statedb.bytes_per_tx", "B/tx"},
	{"blockstore.bytes_per_tx", "B/tx"},
	{"go.alloc_kb_per_tx", "KiB/tx"}, {"go.allocs_per_tx", "allocs/tx"},
	{"go.gc_cpu_pct", "%"},
}

// setupReps is how many times a --trace 0 run sets the network up;
// setup_s is the median. One set-up takes tens of milliseconds, so a
// single one is at the mercy of the host's scheduling.
const setupReps = 61

// runLimit ends a run that would overrun its time budget.
const runLimit = 170 * time.Second

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report is one run's outcome before formatting.
type report struct {
	hash      string
	problems  []string
	attempted int
	failed    int
	values    map[string]float64
}

func main() {
	name := flag.String("workload", "", "workload: hot-doc or cold-keys")
	seed := flag.Int64("seed", 1, "seed of the operation schedule")
	seconds := flag.Float64("seconds", 20, "run length; sizes both phases")
	trace := flag.Int("trace", 0, "1 reports the per-layer metrics from a traced run")
	root := flag.String("workdir", filepath.Join(".bench_build", "e2ebench"),
		"directory for data directories (removed at exit) and the trace file")
	flag.Parse()
	w, err := lookupWorkload(*name)
	if err == nil && (*seconds <= 0 || (*trace != 0 && *trace != 1)) {
		err = fmt.Errorf("want --seconds > 0 and --trace 0 or 1")
	}
	if err != nil {
		fatal(err)
	}
	time.AfterFunc(runLimit, func() { fatal(fmt.Errorf("run exceeded %v", runLimit)) })

	var rep report
	if *trace == 1 {
		rep, err = runTraced(w, *seed, *seconds, *root)
	} else {
		rep, err = runPlain(w, *seed, *seconds, *root)
	}
	if err != nil {
		fatal(err)
	}
	res := rep.result(*trace == 1)
	out, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	for _, p := range rep.problems {
		fmt.Fprintln(os.Stderr, "e2ebench: check failed:", p)
	}
	fmt.Printf("schedule_hash %s workload %s seed %d\n", rep.hash, w.name, *seed)
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "e2ebench:", err)
	os.Exit(1)
}

// result formats the report: a failed check zeroes ok_ratio and fails
// every attempted operation.
func (r report) result(traced bool) result {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	res := result{
		Correct:   len(r.problems) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	if !res.Correct {
		res.Failed = res.Attempted
		if _, ok := r.values["ok_ratio"]; ok {
			r.values["ok_ratio"] = 0
		}
	}
	for _, def := range defs {
		res.Metrics[def.name] = metricValue{Value: r.values[def.name], Unit: def.unit}
	}
	return res
}

// measurement is one deployment's two phases and the counters around the
// open loop.
type measurement struct {
	hash          string
	open, closed  phaseResult
	before, after snapshot
	backlogMax    int
	fill          uint64 // closed-loop blocks in flight before the steady state
}

func measure(d *deployment, seed int64, seconds float64) measurement {
	m := measurement{fill: uint64(d.w.window / blockTxs)}
	openN := d.w.openWrites(seconds)
	ops := makeSchedule(d.w, seed, openN, warmupWrites)
	m.hash = scheduleHash(ops)
	var sampler *backlogSampler
	if d.tap != nil {
		sampler = sampleBacklog(d.net.Peers())
	}
	m.before = d.snap()
	m.open = d.run(ops, time.Now().Add(20*time.Millisecond), 0)
	m.after = d.snap()
	if sampler != nil {
		m.backlogMax = sampler.Stop()
	}
	closed := make([]op, d.w.closedWrites(seconds))
	for i := range closed {
		closed[i] = op{kind: opWrite, idx: warmupWrites + openN + i}
	}
	m.closed = d.run(closed, time.Time{}, d.w.window)
	return m
}

// all is every measured record: warm-up, open loop and closed loop.
func (m measurement) all(d *deployment) []opRec {
	out := append([]opRec(nil), d.warm...)
	out = append(out, m.open.recs...)
	return append(out, m.closed.recs...)
}

// endToEndValues computes the end-to-end metrics of one measurement and
// the per-layer ones taken from an untraced pass (untracedLayer).
func endToEndValues(m measurement) map[string]float64 {
	v := make(map[string]float64)
	commits := latencies(m.open.recs, opWrite)
	reads := latencies(m.open.recs, opRead)
	v["commit_p50_ms"] = ms(quantile(commits, 0.5))
	v["commit_p99_ms"] = ms(quantile(commits, 0.99))
	v["read_p50_ms"] = ms(quantile(reads, 0.5))
	v["read_p99_ms"] = ms(quantile(reads, 0.99))
	attempted, failed := m.counts()
	v["ok_ratio"] = float64(attempted-failed) / float64(attempted)
	v["tps_sat"] = steadyRate(m.closed, m.fill)
	var late []time.Duration
	for _, r := range m.open.recs {
		late = append(late, r.start.Sub(r.due))
	}
	sort.Slice(late, func(i, j int) bool { return late[i] < late[j] })
	v["bench.late_p99_ms"] = ms(quantile(late, 0.99))
	if n := len(m.open.recs); n > 0 {
		v["bench.drain_ms"] = ms(m.open.settled.Sub(m.open.recs[n-1].due))
	}
	if n := committedWrites(m.open.recs); n > 0 {
		v["cpu_ms_per_tx"] = ms(m.after.cpu-m.before.cpu) / float64(n)
	}
	return v
}

func (m measurement) counts() (attempted, failed int) {
	ok1, f1 := count(m.open.recs)
	ok2, f2 := count(m.closed.recs)
	return ok1 + ok2 + f1 + f2, f1 + f2
}

// liveHeapMiB forces a GC and reads the live heap.
func liveHeapMiB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// runPlain is the --trace 0 run: setupReps set-ups (the last one kept),
// both phases, the checks and the end-to-end metrics.
func runPlain(w workloadSpec, seed int64, seconds float64, root string) (report, error) {
	workdir, err := runDir(root)
	if err != nil {
		return report{}, err
	}
	defer os.RemoveAll(workdir)
	var setups []time.Duration
	var d *deployment
	for i := 0; i < setupReps; i++ {
		runtime.GC() // no set-up pays for the garbage of the one before
		start := time.Now()
		d, err = setup(w, workdir, nil)
		if err != nil {
			return report{}, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start))
		if i < setupReps-1 {
			if err := d.teardown(); err != nil {
				return report{}, fmt.Errorf("set-up teardown: %w", err)
			}
		}
	}
	m := measure(d, seed, seconds)
	rep := report{hash: m.hash, values: endToEndValues(m)}
	rep.attempted, rep.failed = m.counts()
	rep.problems = d.check(m.all(d))
	rep.values["live_heap_mb"] = liveHeapMiB()
	sort.Slice(setups, func(i, j int) bool { return setups[i] < setups[j] })
	rep.values["setup_s"] = setups[len(setups)/2].Seconds()
	if err := d.teardown(); err != nil {
		rep.problems = append(rep.problems, "network: "+err.Error())
	}
	logRun(w, m, rep.values)
	return rep, nil
}

// runTraced is the --trace 1 run: the workload once untraced (for the
// tracing overhead) and once traced, then the replay of the traced run's
// blocks; it reports the per-layer metrics.
func runTraced(w workloadSpec, seed int64, seconds float64, root string) (report, error) {
	workdir, err := runDir(root)
	if err != nil {
		return report{}, err
	}
	defer os.RemoveAll(workdir)

	plain, err := setup(w, workdir, nil)
	if err != nil {
		return report{}, fmt.Errorf("set-up: %w", err)
	}
	pm := measure(plain, seed, seconds)
	problems := plain.check(pm.all(plain))
	if err := plain.teardown(); err != nil {
		problems = append(problems, "network: "+err.Error())
	}
	untraced := endToEndValues(pm)

	tracer := obs.NewTracer("e2ebench")
	d, err := setup(w, workdir, newTap(tracer, anchorOrg+".peer0"))
	if err != nil {
		return report{}, fmt.Errorf("traced set-up: %w", err)
	}
	defer d.teardown()
	m := measure(d, seed, seconds)
	rep := report{hash: m.hash, values: make(map[string]float64)}
	for _, k := range untracedLayer {
		rep.values[k] = untraced[k]
	}
	rep.attempted, rep.failed = m.counts()
	all := m.all(d)
	rep.problems = append(problems, d.check(all)...)
	if err := layerValues(d, m, all, untraced["commit_p50_ms"], rep.values); err != nil {
		return report{}, err
	}
	blocks := d.tap.capturedBlocks()
	docKey, doc, err := largestDoc(d.anchor, d.ch, d.docKeys(all, opWrite))
	if err != nil {
		return report{}, err
	}
	rep.values["jsoncrdt.doc_kb"] = float64(len(doc)) / 1024
	if err := d.stop(); err != nil {
		rep.problems = append(rep.problems, "network: "+err.Error())
	}
	rs, replayed, err := replay(d, blocks, workdir, docKey, doc)
	if err != nil {
		return report{}, err
	}
	if string(replayed) != string(doc) {
		rep.problems = append(rep.problems, fmt.Sprintf("replay peer's %s differs from the network's", docKey))
	}
	for k, v := range map[string]float64{
		"replay.prepare_us": rs.prepareUs, "replay.finalize_us": rs.finalizeUs,
		"replay.prepare_allocs": rs.prepareAllocs, "replay.finalize_allocs": rs.finalizeAllocs,
		"replay.verify_us": rs.verifyUs, "replay.decode_us": rs.decodeUs,
		"replay.doc_load_us": rs.docLoadUs, "replay.doc_store_us": rs.docStoreUs,
	} {
		rep.values[k] = v
	}
	path := tracePath(root, w)
	if err := tracer.WriteFile(path); err != nil {
		return report{}, fmt.Errorf("writing trace: %w", err)
	}
	fmt.Fprintf(os.Stderr, "e2ebench: %d spans written to %s\n", len(tracer.Spans()), path)
	logRun(w, pm, untraced)
	return rep, nil
}

// tracePath is where a traced run writes its spans (Chrome trace format).
func tracePath(root string, w workloadSpec) string {
	return filepath.Join(root, "trace-"+w.name+".json")
}

// layerValues fills the per-layer metrics read from the live network.
func layerValues(d *deployment, m measurement, all []opRec, untracedP50 float64, v map[string]float64) error {
	open := m.open.recs
	var prep []time.Duration
	for _, r := range open {
		prep = append(prep, r.prepare)
	}
	sort.Slice(prep, func(i, j int) bool { return prep[i] < prep[j] })
	if p50 := ms(quantile(latencies(open, opWrite), 0.5)); untracedP50 > 0 {
		v["bench.trace_overhead_pct"] = (p50 - untracedP50) / untracedP50 * 100
	}
	v["client.prepare_p50_ms"] = ms(quantile(prep, 0.5))
	v["client.prepare_p99_ms"] = ms(quantile(prep, 0.99))

	bs := d.tap.stats(open, len(d.net.Peers()))
	v["orderer.cut_wait_p50_ms"] = ms(quantile(bs.cutWait, 0.5))
	v["transport.fanout_p99_ms"] = ms(quantile(bs.fanout, 0.99))
	v["peer.commit_p50_ms"] = ms(quantile(bs.peerCommit, 0.5))
	v["peer.commit_p99_ms"] = ms(quantile(bs.peerCommit, 0.99))
	v["peer.event_backlog_max"] = float64(m.backlogMax)

	blocks, err := d.chainBlocks()
	if err != nil {
		return err
	}
	txs := 0
	for _, b := range blocks {
		txs += len(b.Transactions)
		if len(b.Transactions) < blockTxs {
			v["orderer.partial_blocks"]++
		}
	}
	if len(blocks) > 0 {
		v["orderer.txs_per_block"] = float64(txs) / float64(len(blocks))
	}

	openCommitted := float64(committedWrites(open))
	if openCommitted > 0 {
		v["wire.bytes_per_tx"] = (m.after.wireBytes - m.before.wireBytes) / openCommitted
		v["wire.frames_per_tx"] = (m.after.wireFrames - m.before.wireFrames) / openCommitted
		v["go.alloc_kb_per_tx"] = float64(m.after.allocBytes-m.before.allocBytes) / 1024 / openCommitted
		v["go.allocs_per_tx"] = float64(m.after.allocObjects-m.before.allocObjects) / openCommitted
	}
	if cpu := m.after.totalCPU - m.before.totalCPU; cpu > 0 {
		v["go.gc_cpu_pct"] = (m.after.gcCPU - m.before.gcCPU) / cpu * 100
	}
	for _, st := range reportedStages {
		if n := m.after.stageN[st] - m.before.stageN[st]; n > 0 {
			v["peer.stage."+st+"_ms"] = (m.after.stageNs[st] - m.before.stageNs[st]) / n / 1e6
		}
	}

	end := d.snap()
	peers := float64(len(d.net.Peers()))
	committed := float64(committedWrites(all))
	v["statedb.flushes"] = end.registry[obs.MetricStatedbFlushes]
	v["statedb.compactions"] = end.registry[obs.MetricStatedbCompactions]
	hits, misses := end.registry[obs.MetricStatedbCacheHits], end.registry[obs.MetricStatedbCacheMisses]
	if hits+misses > 0 {
		v["statedb.cache_hit_ratio"] = hits / (hits + misses)
	}
	if committed > 0 {
		v["statedb.bytes_per_tx"] = end.registry[obs.MetricStatedbLogBytes] / peers / committed
		v["blockstore.bytes_per_tx"] = end.blockstoreBytes / peers / committed
	}
	return nil
}

// logRun prints a one-line summary of the phases to stderr from the
// measurement's end-to-end values v.
func logRun(w workloadSpec, m measurement, v map[string]float64) {
	fmt.Fprintf(os.Stderr, "e2ebench: %s open loop %d ops, commit p50 %.1fms p99 %.1fms, late p99 %.1fms, drained %.1fms after the last due op; closed loop %d writes in %v\n",
		w.name, len(m.open.recs), v["commit_p50_ms"], v["commit_p99_ms"], v["bench.late_p99_ms"], v["bench.drain_ms"],
		len(m.closed.recs), m.closed.settled.Sub(m.closed.start).Round(time.Millisecond))
}
