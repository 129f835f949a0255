package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"fabriccrdt/internal/obs"
)

// TestScheduleDeterminism pins the generator's contract: the operation
// schedule is a pure function of the seed.
func TestScheduleDeterminism(t *testing.T) {
	for _, w := range workloads {
		a := scheduleHash(makeSchedule(w, 7, 200, warmupWrites))
		b := scheduleHash(makeSchedule(w, 7, 200, warmupWrites))
		c := scheduleHash(makeSchedule(w, 8, 200, warmupWrites))
		if a != b {
			t.Errorf("%s: seed 7 gave schedules %s and %s", w.name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 gave the same schedule %s", w.name, a)
		}
	}
}

// TestScheduleShape checks the schedule's invariants: exactly the
// requested writes, ascending arrivals, fresh write indices, and
// cold-keys reads of documents written at least readLag earlier (or
// warm-up documents).
func TestScheduleShape(t *testing.T) {
	for _, w := range workloads {
		ops := makeSchedule(w, 3, 500, warmupWrites)
		dueOf := make(map[int]int64)
		writes, reads := 0, 0
		for i, o := range ops {
			if i > 0 && o.at < ops[i-1].at {
				t.Fatalf("%s: op %d arrives before op %d", w.name, i, i-1)
			}
			if o.kind == opWrite {
				if o.idx != warmupWrites+writes {
					t.Fatalf("%s: write %d has index %d", w.name, writes, o.idx)
				}
				dueOf[o.idx] = int64(o.at)
				writes++
				continue
			}
			reads++
			if w.conflictPct == 0 && o.idx >= warmupWrites {
				due, ok := dueOf[o.idx]
				if !ok || int64(o.at)-due < int64(readLag) {
					t.Fatalf("%s: read at %v targets write %d, not written %v before", w.name, o.at, o.idx, readLag)
				}
			}
		}
		if writes != 500 || reads == 0 {
			t.Fatalf("%s: %d writes and %d reads, want 500 writes and some reads", w.name, writes, reads)
		}
	}
}

// contract is the metric list of BENCHMARK.json at the repository root.
type contract struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestSmoke runs every workload at tiny scale, untraced and traced, and
// checks that each run passes its correctness checks and emits exactly the
// metrics BENCHMARK.json names, each with its unit. Only the traced run
// writes spans.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the network four times")
	}
	c := readContract(t)
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(c.Workloads), len(workloads))
	}
	for _, cw := range c.Workloads {
		w, err := lookupWorkload(cw.Name)
		if err != nil {
			t.Fatal(err)
		}
		root := t.TempDir()
		for _, traced := range []bool{false, true} {
			run, want := runPlain, c.EndToEnd
			if traced {
				run, want = runTraced, c.PerLayer
			}
			rep, err := run(w, 5, 1, root)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			res := rep.result(traced)
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s traced=%v: correct=%v attempted=%d failed=%d problems=%v",
					w.name, traced, res.Correct, res.Attempted, res.Failed, rep.problems)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json names %d", w.name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", w.name, traced, m.Name, got, m.Unit)
				}
			}
			if !traced {
				if _, err := os.Stat(tracePath(root, w)); !os.IsNotExist(err) {
					t.Errorf("%s: the untraced run wrote a trace file (%v)", w.name, err)
				}
				if v := res.Metrics["ok_ratio"].Value; v != 1 {
					t.Errorf("%s: ok_ratio %v", w.name, v)
				}
				continue
			}
			if v := res.Metrics["orderer.partial_blocks"].Value; v > 1 {
				t.Errorf("%s: %v partial blocks", w.name, v)
			}
			data, err := os.ReadFile(tracePath(root, w))
			if err != nil {
				t.Fatal(err)
			}
			spans, err := obs.ParseChromeTrace(data)
			if err != nil {
				t.Fatal(err)
			}
			names := make(map[string]bool)
			for _, s := range spans {
				names[s.Name] = true
			}
			for _, n := range []string{"client.prepare", "orderer.broadcast", "bench.commit", "bench.read",
				"transport.recv", "peer.commit", "replay.prepare"} {
				if !names[n] {
					t.Errorf("%s: no %q span in the trace", w.name, n)
				}
			}
		}
		if obs.TracingEnabled() {
			t.Errorf("%s: the program's default tracer was enabled", w.name)
		}
	}
}
