// Benchmarks regenerating (at reduced scale) every figure of the paper's
// evaluation, plus the ablations called out in DESIGN.md. Each figure bench
// runs one representative cell per sub-range; the full parameter sweeps at
// paper scale are produced by cmd/fabriccrdt-bench, whose output is recorded
// in EXPERIMENTS.md.
//
// Run: go test -bench=. -benchmem .
package fabriccrdt_test

import (
	"fmt"
	"testing"
	"time"

	"fabriccrdt/internal/core"
	"fabriccrdt/internal/ledger"
	"fabriccrdt/internal/rwset"
	"fabriccrdt/internal/simnet"
	"fabriccrdt/internal/statedb"
	"fabriccrdt/internal/workload"
)

// benchTotalTx keeps per-iteration work moderate; the simulated pipeline
// preserves the figures' shapes at this scale.
const benchTotalTx = 500

// benchModel keeps virtual-time constants but a low CPU scale so bench wall
// time stays dominated by the real merge work being measured.
func benchModel() *simnet.LatencyModel {
	m := simnet.DefaultLatencyModel()
	return &m
}

func runSim(b *testing.B, cfg simnet.Config) {
	b.Helper()
	res, err := simnet.Run(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if res.Submitted != cfg.TotalTx {
		b.Fatalf("submitted %d, want %d", res.Submitted, cfg.TotalTx)
	}
	b.ReportMetric(res.Throughput, "vtx/s")
	b.ReportMetric(res.AvgLatency.Seconds(), "vlat_s")
	b.ReportMetric(float64(res.Successful), "success")
}

func figConfig(mode simnet.Mode, blockSize int, rate float64, wl workload.IoTParams) simnet.Config {
	return simnet.Config{
		Mode:      mode,
		BlockSize: blockSize,
		Rate:      rate,
		TotalTx:   benchTotalTx,
		Workload:  wl,
		Latency:   benchModel(),
		Engine:    core.Options{FreshDocPerBlock: true},
	}
}

var conflictAll = workload.IoTParams{ReadKeys: 1, WriteKeys: 1, JSONKeys: 2, ConflictPct: 100}

// BenchmarkFig3BlockSize regenerates Figure 3: block-size sweep, both
// systems, all transactions conflicting.
func BenchmarkFig3BlockSize(b *testing.B) {
	for _, size := range []int{25, 100, 400, 1000} {
		for _, mode := range []simnet.Mode{simnet.ModeFabricCRDT, simnet.ModeFabric} {
			b.Run(fmt.Sprintf("%s/block=%d", mode, size), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					runSim(b, figConfig(mode, size, 300, conflictAll))
				}
			})
		}
	}
}

// BenchmarkFig4ReadWriteKeys regenerates Figure 4: read/write-set sizes.
func BenchmarkFig4ReadWriteKeys(b *testing.B) {
	for _, p := range []struct{ r, w int }{{1, 1}, {3, 3}, {5, 5}} {
		wl := workload.IoTParams{ReadKeys: p.r, WriteKeys: p.w, JSONKeys: 2, ConflictPct: 100}
		b.Run(fmt.Sprintf("FabricCRDT/rw=%d-%d", p.r, p.w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runSim(b, figConfig(simnet.ModeFabricCRDT, 25, 300, wl))
			}
		})
		b.Run(fmt.Sprintf("Fabric/rw=%d-%d", p.r, p.w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runSim(b, figConfig(simnet.ModeFabric, 400, 300, wl))
			}
		})
	}
}

// BenchmarkFig5JSONComplexity regenerates Figure 5: JSON object complexity.
func BenchmarkFig5JSONComplexity(b *testing.B) {
	for _, k := range []int{2, 4, 6} {
		wl := workload.IoTParams{ReadKeys: 1, WriteKeys: 1, JSONKeys: k, NestingDepth: k, ConflictPct: 100}
		b.Run(fmt.Sprintf("FabricCRDT/complexity=%d-%d", k, k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runSim(b, figConfig(simnet.ModeFabricCRDT, 25, 300, wl))
			}
		})
	}
}

// BenchmarkFig6ArrivalRate regenerates Figure 6: arrival-rate sweep.
func BenchmarkFig6ArrivalRate(b *testing.B) {
	for _, rate := range []float64{100, 300, 500} {
		b.Run(fmt.Sprintf("FabricCRDT/rate=%.0f", rate), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runSim(b, figConfig(simnet.ModeFabricCRDT, 25, rate, conflictAll))
			}
		})
	}
}

// BenchmarkFig7ConflictRatio regenerates Figure 7: conflicting-transaction
// percentage.
func BenchmarkFig7ConflictRatio(b *testing.B) {
	for _, pct := range []int{0, 40, 80} {
		wl := workload.IoTParams{ReadKeys: 1, WriteKeys: 1, JSONKeys: 2, ConflictPct: pct, Seed: 42}
		for _, mode := range []simnet.Mode{simnet.ModeFabricCRDT, simnet.ModeFabric} {
			blockSize := 25
			if mode == simnet.ModeFabric {
				blockSize = 400
			}
			b.Run(fmt.Sprintf("%s/conflict=%d%%", mode, pct), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					runSim(b, figConfig(mode, blockSize, 300, wl))
				}
			})
		}
	}
}

// mergeBlockFixture builds one block of conflicting CRDT transactions.
func mergeBlockFixture(blockSize int) *ledger.Block {
	gen := workload.NewIoT(workload.IoTParams{ReadKeys: 1, WriteKeys: 1, JSONKeys: 2, ConflictPct: 100})
	txs := make([]*ledger.Transaction, blockSize)
	for i := range txs {
		spec := gen.Spec(i)
		txs[i] = &ledger.Transaction{
			ID: fmt.Sprintf("t%d", i),
			RWSet: rwset.ReadWriteSet{
				Writes: []rwset.Write{{Key: spec.Writes[0].Key, Value: spec.Writes[0].Delta, IsCRDT: true}},
			},
		}
	}
	return &ledger.Block{Header: ledger.BlockHeader{Number: 1}, Transactions: txs}
}

// BenchmarkAblationSecondPass quantifies DESIGN.md A1: Algorithm 1's
// literal per-transaction reserialization versus serialize-once-per-key.
func BenchmarkAblationSecondPass(b *testing.B) {
	for _, variant := range []struct {
		name string
		opts core.Options
	}{
		{"paper-literal", core.Options{FreshDocPerBlock: true, PaperSecondPass: true}},
		{"once-per-key", core.Options{FreshDocPerBlock: true}},
	} {
		b.Run(variant.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				block := mergeBlockFixture(400)
				engine := core.NewEngine(statedb.New(), variant.opts)
				codes := make([]ledger.ValidationCode, len(block.Transactions))
				b.StartTimer()
				if _, err := engine.MergeBlock(block, codes); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationSeeding quantifies DESIGN.md §3: the paper-literal fresh
// document per block versus cross-block seeding (true no-update-loss),
// committing 20 consecutive 25-transaction blocks to one key.
func BenchmarkAblationSeeding(b *testing.B) {
	for _, variant := range []struct {
		name string
		opts core.Options
	}{
		{"fresh-per-block", core.Options{FreshDocPerBlock: true}},
		{"cross-block-seeded", core.Options{}},
	} {
		b.Run(variant.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				db := statedb.New()
				engine := core.NewEngine(db, variant.opts)
				b.StartTimer()
				for blk := 0; blk < 20; blk++ {
					block := mergeBlockFixture(25)
					block.Header.Number = uint64(blk + 1)
					codes := make([]ledger.ValidationCode, len(block.Transactions))
					res, err := engine.MergeBlock(block, codes)
					if err != nil {
						b.Fatal(err)
					}
					batch := statedb.NewUpdateBatch()
					core.StageDocStates(batch, res)
					db.Apply(batch, rwset.Version{BlockNum: block.Header.Number})
				}
			}
		})
	}
}

// BenchmarkLiveNetworkEndToEnd measures the real goroutine network (not the
// simulator): conflicting transactions through 6 peers with ed25519
// endorsement.
func BenchmarkLiveNetworkEndToEnd(b *testing.B) {
	for _, enableCRDT := range []bool{true, false} {
		name := "FabricCRDT"
		if !enableCRDT {
			name = "Fabric"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				net, cleanup := newLiveNet(b, enableCRDT)
				b.StartTimer()
				cli, err := net.NewClient("Org1", "bench", []string{"Org1"})
				if err != nil {
					b.Fatal(err)
				}
				done := make(chan error, 50)
				for j := 0; j < 50; j++ {
					go func(j int) {
						_, err := cli.SubmitAndWait(30*time.Second, "iot",
							[]byte("record"), []byte("dev"), []byte(fmt.Sprintf("%d", j)))
						done <- err
					}(j)
				}
				committed := 0
				for j := 0; j < 50; j++ {
					if err := <-done; err == nil {
						committed++
					}
				}
				if enableCRDT && committed != 50 {
					b.Fatalf("FabricCRDT committed %d/50", committed)
				}
				b.StopTimer()
				cleanup()
				b.StartTimer()
			}
		})
	}
}
