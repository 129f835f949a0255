package main

import (
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"fabriccrdt/internal/client"
	"fabriccrdt/internal/ledger"
	"fabriccrdt/internal/obs"
	"fabriccrdt/internal/peer"
	"fabriccrdt/internal/transport"
	"fabriccrdt/internal/workload"
)

// drainTimeout bounds the wait for a phase's last commits; an operation
// still unresolved then counts as failed.
const drainTimeout = 60 * time.Second

// opRec is the outcome of one operation.
type opRec struct {
	kind     opKind
	idx      int
	due      time.Time
	start    time.Time     // a submitter picked it up
	prepare  time.Duration // time inside client.Prepare
	done     time.Time     // read answered, or commit event at the anchor
	resolved bool
	slot     bool // holds a closed-loop window slot
	ok       bool
	code     ledger.ValidationCode
	block    uint64
	errMsg   string
}

// phaseResult is one phase's records, snapshotted once every operation
// resolved or the drain timed out.
type phaseResult struct {
	recs    []opRec
	start   time.Time
	end     time.Time // the last resolution
	settled time.Time // every peer had committed the phase's blocks
	// reached maps a chain height to when the slowest peer reached it
	// (closed loop only).
	reached map[uint64]time.Time
}

// run drives ops through one submitter goroutine per client. With t0 set
// it is the open loop: one generator goroutine hands op i to the
// submitters when t0+ops[i].at is due, whatever is still in flight. With
// t0 zero it is the closed loop: every op is due at once and at most
// window writes are in flight. The orderer is flushed only after the last
// broadcast was accepted, so the batch timeout never ends a phase.
func (d *deployment) run(ops []op, t0 time.Time, window int) phaseResult {
	open := !t0.IsZero()
	if !open {
		t0 = time.Now()
	}
	recs := make([]opRec, len(ops))
	for i, o := range ops {
		recs[i] = opRec{kind: o.kind, idx: o.idx, due: t0.Add(o.at)}
	}
	var slots chan struct{}
	if !open {
		slots = make(chan struct{}, window) // semaphore: the in-flight window
	}
	var outstanding sync.WaitGroup
	outstanding.Add(len(ops))
	s := &submission{d: d, recs: recs, slots: slots, outstanding: &outstanding, tracer: d.tracer(),
		held: make(map[uint64]int)}
	stopWatch := make(chan struct{})
	var watched chan map[uint64]time.Time
	if !open {
		watched = make(chan map[uint64]time.Time, 1)
		go func() { watched <- d.watchHeights(stopWatch, s.advance) }()
	}

	queue := make(chan int, len(ops)) // sized to every op: the generator never blocks
	var subs sync.WaitGroup
	for k := range d.clients {
		subs.Add(1)
		go func(cl *client.Client, tr transport.Transport) {
			defer subs.Done()
			for i := range queue {
				s.issue(i, cl, tr)
			}
		}(d.clients[k], d.trs[k])
	}
	for i := range ops {
		if open {
			if wait := time.Until(recs[i].due); wait > 0 {
				time.Sleep(wait)
			}
		}
		queue <- i
	}
	close(queue)
	subs.Wait()
	d.net.Orderer().Flush()

	drained := make(chan struct{})
	go func() {
		outstanding.Wait()
		close(drained)
	}()
	select {
	case <-drained:
	case <-time.After(drainTimeout):
	}
	// The phase's work is done when the slowest peer, not the anchor, has
	// committed its last block. Peers that never get there fail the
	// run's checks, which wait for them again.
	_ = d.waitHeights(drainTimeout)
	res := phaseResult{start: t0, settled: time.Now()}
	close(stopWatch)
	if watched != nil {
		res.reached = <-watched
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	res.recs = append([]opRec(nil), recs...)
	for i := range res.recs {
		r := &res.recs[i]
		if !r.resolved {
			r.resolved, r.errMsg = true, "timed out"
		}
		if r.done.After(res.end) {
			res.end = r.done
		}
	}
	return res
}

// watchHeights polls every peer's height (its last committed block) each
// millisecond until stop is closed, calls advance whenever the slowest
// peer's height grows, and returns when it first reached each height.
func (d *deployment) watchHeights(stop <-chan struct{}, advance func(low uint64)) map[uint64]time.Time {
	reached := make(map[uint64]time.Time)
	var last uint64
	poll := func() {
		low := uint64(0)
		for i, p := range d.net.Peers() {
			if h, err := p.HeightOn(d.ch); err == nil && (i == 0 || h < low) {
				low = h
			}
		}
		now := time.Now()
		for h := last + 1; last > 0 && h <= low; h++ {
			reached[h] = now
		}
		if low > last {
			last = low
			advance(low)
		}
	}
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for {
		poll()
		select {
		case <-stop:
			poll() // the caller saw every peer at the final height
			return reached
		case <-tick.C:
		}
	}
}

// steadyRate is a closed-loop phase's committed writes per second on every
// peer once the pipeline is full: from the slowest peer's commit of the
// block fill blocks after the phase's first to its commit of the last.
// Timing the slowest peer keeps every peer's work in the rate; skipping
// the fill keeps the start-up out of it.
func steadyRate(p phaseResult, fill uint64) float64 {
	first, last := uint64(0), uint64(0)
	for _, r := range p.recs {
		if r.kind != opWrite || !r.ok {
			continue
		}
		if first == 0 || r.block < first {
			first = r.block
		}
		if r.block > last {
			last = r.block
		}
	}
	from, to := first+fill, last
	tFrom, ok1 := p.reached[from]
	tTo, ok2 := p.reached[to]
	if !ok1 || !ok2 || to <= from || !tTo.After(tFrom) {
		return 0
	}
	return float64(blockTxs*(to-from)) / tTo.Sub(tFrom).Seconds()
}

// submission is the state the submitters of one phase share. Records are
// written under d.mu: the submitter, the commit listener and the drain
// snapshot all touch them.
type submission struct {
	d           *deployment
	recs        []opRec
	slots       chan struct{}
	outstanding *sync.WaitGroup
	tracer      *obs.Tracer

	// A closed-loop write keeps its window slot until every peer has
	// committed its block, so the window bounds the work the slowest
	// peer has left, not the anchor's. Guarded by d.mu.
	low  uint64         // the slowest peer's height
	held map[uint64]int // committed writes still holding a slot, by block
}

// advance releases the slots of writes in blocks every peer has committed.
func (s *submission) advance(low uint64) {
	s.d.mu.Lock()
	s.low = low
	n := 0
	for b, k := range s.held {
		if b <= low {
			n += k
			delete(s.held, b)
		}
	}
	s.d.mu.Unlock()
	for ; n > 0; n-- {
		<-s.slots
	}
}

// resolve settles op i once; later calls are no-ops.
func (s *submission) resolve(i int, at time.Time, ok bool, fill func(r *opRec)) {
	s.d.mu.Lock()
	r := &s.recs[i]
	if r.resolved {
		s.d.mu.Unlock()
		return
	}
	r.resolved, r.ok, r.done = true, ok, at
	if fill != nil {
		fill(r)
	}
	release := r.slot
	if release && r.ok && r.block > s.low {
		s.held[r.block]++
		release = false
	}
	s.d.mu.Unlock()
	if release {
		<-s.slots
	}
	s.outstanding.Done()
}

// issue runs op i: client.Prepare (endorsement at the anchor), then for a
// write the broadcast; the write resolves on its commit event.
func (s *submission) issue(i int, cl *client.Client, tr transport.Transport) {
	s.d.mu.Lock()
	kind, idx := s.recs[i].kind, s.recs[i].idx
	s.d.mu.Unlock()
	if s.slots != nil && kind == opWrite {
		select {
		case s.slots <- struct{}{}:
		case <-time.After(drainTimeout):
			s.resolve(i, time.Now(), false, func(r *opRec) { r.errMsg = "no window slot freed" })
			return
		}
		s.d.mu.Lock()
		s.recs[i].slot = true
		s.d.mu.Unlock()
	}
	start := time.Now()
	var args [][]byte
	if kind == opRead {
		args = [][]byte{[]byte("get"), []byte(s.d.keyOf(idx))}
	} else {
		args = workload.SpecArgs(idx)
	}
	tx, err := cl.Prepare(chaincodeName, args...)
	prepared := time.Now()
	s.d.mu.Lock()
	s.recs[i].start, s.recs[i].prepare = start, prepared.Sub(start)
	due := s.recs[i].due
	s.d.mu.Unlock()
	if err != nil {
		s.resolve(i, prepared, false, func(r *opRec) { r.errMsg = err.Error() })
		return
	}
	s.tracer.Record(tx.ID, "client.prepare", start, "op", kind.String(), "idx", strconv.Itoa(idx))
	if kind == opRead {
		s.tracer.Record(tx.ID, "bench.read", due)
		s.resolve(i, prepared, true, nil)
		return
	}
	s.d.expect(tx.ID, func(ev peer.CommitEvent, at time.Time) {
		s.tracer.Record(tx.ID, "bench.commit", due, "block", strconv.FormatUint(ev.BlockNum, 10), "code", ev.Code.String())
		s.resolve(i, at, ev.Code.Committed(), func(r *opRec) { r.code, r.block = ev.Code, ev.BlockNum })
	})
	bstart := time.Now()
	if err := tr.Broadcast(tx); err != nil {
		s.d.forget(tx.ID)
		s.resolve(i, time.Now(), false, func(r *opRec) { r.errMsg = "broadcast: " + err.Error() })
		return
	}
	s.tracer.Record(tx.ID, "orderer.broadcast", bstart)
}

// latencies returns done-due of every successful op of kind, sorted.
func latencies(recs []opRec, kind opKind) []time.Duration {
	var out []time.Duration
	for _, r := range recs {
		if r.kind == kind && r.ok {
			out = append(out, r.done.Sub(r.due))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// quantile is the nearest-rank q-quantile of sorted; 0 when empty.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	k := int(q*float64(len(sorted))+0.999999) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(sorted) {
		k = len(sorted) - 1
	}
	return sorted[k]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median of unsorted durations, in µs.
func median(ds []time.Duration) float64 {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return float64(quantile(s, 0.5)) / 1e3
}

// count tallies successful and failed records.
func count(recs []opRec) (ok, failed int) {
	for _, r := range recs {
		if r.ok {
			ok++
		} else {
			failed++
		}
	}
	return ok, failed
}

// committedWrites counts writes that committed.
func committedWrites(recs []opRec) int {
	n := 0
	for _, r := range recs {
		if r.kind == opWrite && r.ok {
			n++
		}
	}
	return n
}

// firstFailure describes one failed record, for diagnostics.
func firstFailure(recs []opRec) string {
	for _, r := range recs {
		if !r.ok {
			if r.errMsg != "" {
				return fmt.Sprintf("%s %d: %s", r.kind, r.idx, r.errMsg)
			}
			return fmt.Sprintf("%s %d: %s", r.kind, r.idx, r.code)
		}
	}
	return ""
}
