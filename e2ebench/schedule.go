package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"time"
)

// blockTxs is the orderer's block size (the paper's default of 25). Every
// phase submits a multiple of it, so no block is cut by the batch timeout
// or by the tail flush.
const blockTxs = 25

// warmupWrites is the number of writes each set-up commits before any
// timing: one full block.
const warmupWrites = blockTxs

// workloadSpec is one benchmark workload: the chaincode conflict shape, the
// deployment (backend and transport) and the two phases' sizing.
type workloadSpec struct {
	name string
	// conflictPct is the IoT generator's share of writes on the one hot
	// document (100) or on a fresh document per write (0).
	conflictPct int
	// wire puts client submits and all deliver streams on loopback TCP
	// and the world state on the LSM backend with the block store on.
	wire bool
	// writeRate and readRate are the open-loop Poisson rates, in ops/s.
	writeRate, readRate float64
	// closedRate is the expected closed-loop throughput in tx/s; it only
	// sizes the closed-loop transaction count.
	closedRate float64
	// window is the closed-loop in-flight bound, several blocks deep.
	window int
}

// Share of --seconds given to each phase; the rest is set-up, drain and
// checks.
const (
	openShare   = 0.6
	closedShare = 0.25
)

// The open-loop rates follow two rules (METRICS.md, "Rates"). Reads: one
// per write, the 50/50 read/update mix of YCSB's workload A. Writes: a
// round rate at which the open loop of the baseline in METRICS.md keeps
// the process at about a third of a two-core host (writes/s × cpu_ms_per_tx ≈ 0.6–0.8 CPU
// seconds per second), so queueing stays short on a shared host and a
// change can double the CPU cost of a write before the open loop saturates.
var workloads = []workloadSpec{
	{name: "hot-doc", conflictPct: 100, writeRate: 60, readRate: 60, closedRate: 70, window: 4 * blockTxs},
	{name: "cold-keys", conflictPct: 0, wire: true, writeRate: 200, readRate: 200, closedRate: 650, window: 6 * blockTxs},
}

func lookupWorkload(name string) (workloadSpec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q (want hot-doc or cold-keys)", name)
}

// roundBlocks rounds n to a whole number of blocks, at least one.
func roundBlocks(n float64) int {
	b := int(n/blockTxs + 0.5)
	if b < 1 {
		b = 1
	}
	return b * blockTxs
}

// openWrites is the open-loop phase's write count for a run of seconds.
func (w workloadSpec) openWrites(seconds float64) int {
	return roundBlocks(w.writeRate * openShare * seconds)
}

// closedWrites is the closed-loop phase's write count for a run of seconds.
func (w workloadSpec) closedWrites(seconds float64) int {
	return roundBlocks(w.closedRate * closedShare * seconds)
}

type opKind uint8

const (
	opWrite opKind = iota
	opRead
)

func (k opKind) String() string {
	if k == opRead {
		return "read"
	}
	return "write"
}

// op is one scheduled operation. A write invokes the IoT chaincode with
// spec index idx; a read evaluates the document written by spec index idx.
type op struct {
	at   time.Duration // arrival offset from the phase start
	kind opKind
	idx  int
}

// A cold-keys read targets a document whose write was due between readLag
// and readLag+readSpan before the read: recently committed documents, as a
// dashboard reads a device's latest state. readLag is over five times the
// baseline cold-keys commit_p99, so the document is committed when read.
// The span sets how much of the state the reads touch, and so
// statedb.cache_hit_ratio.
const (
	readLag  = time.Second
	readSpan = time.Second
)

// makeSchedule derives the open-loop operation schedule from the seed
// alone: Poisson arrivals at writeRate+readRate, each op a read with
// probability readRate/(writeRate+readRate), until exactly writes writes
// are scheduled. Write spec indices run from firstIdx upward. A read
// targets the hot document (conflictPct 100) or one of the latest
// readSpan worth of writes (at writeRate) due at least readLag earlier,
// falling back to the warm-up documents [0, warmupWrites).
func makeSchedule(w workloadSpec, seed int64, writes, firstIdx int) []op {
	rng := rand.New(rand.NewSource(seed))
	total := w.writeRate + w.readRate
	pRead := w.readRate / total
	recent := int(w.writeRate * readSpan.Seconds())
	ops := make([]op, 0, int(float64(writes)*total/w.writeRate)+16)
	var (
		at       time.Duration
		written  []op // writes scheduled so far, in arrival order
		eligible int  // written[:eligible] were due readLag before at
		nWrites  int
	)
	for nWrites < writes {
		at += time.Duration(rng.ExpFloat64() / total * float64(time.Second))
		if rng.Float64() < pRead {
			target := 0
			if w.conflictPct == 0 {
				for eligible < len(written) && written[eligible].at <= at-readLag {
					eligible++
				}
				if eligible == 0 {
					target = rng.Intn(warmupWrites)
				} else {
					lo := eligible - recent
					if lo < 0 {
						lo = 0
					}
					target = written[lo+rng.Intn(eligible-lo)].idx
				}
			}
			ops = append(ops, op{at: at, kind: opRead, idx: target})
			continue
		}
		o := op{at: at, kind: opWrite, idx: firstIdx + nWrites}
		ops = append(ops, o)
		written = append(written, o)
		nWrites++
	}
	return ops
}

// scheduleHash fingerprints a schedule: arrival offsets, op kinds and
// targets.
func scheduleHash(ops []op) string {
	h := sha256.New()
	var buf [17]byte
	for _, o := range ops {
		binary.LittleEndian.PutUint64(buf[0:], uint64(o.at))
		buf[8] = byte(o.kind)
		binary.LittleEndian.PutUint64(buf[9:], uint64(o.idx))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}
