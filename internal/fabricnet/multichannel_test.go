package fabricnet

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"fabriccrdt/internal/ledger"
	"fabriccrdt/internal/peer"
)

// wipeChannelStore removes one peer's store for one channel, simulating a
// partially lost data directory.
func wipeChannelStore(dataDir, peerName, channelID string) error {
	return os.RemoveAll(filepath.Join(dataDir, peerName, channelID))
}

// newMultiNet assembles the paper topology over the given channels.
func newMultiNet(t *testing.T, blockSize int, committer peer.CommitterConfig, channels ...string) *Network {
	t.Helper()
	cfg := PaperConfig(blockSize, true)
	cfg.Channels = channels
	cfg.Orderer.BatchTimeout = 100 * time.Millisecond
	cfg.Committer = committer
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.InstallChaincode("iot", iotCC(), testPolicy); err != nil {
		t.Fatal(err)
	}
	return n
}

func TestNewRejectsBadChannelLists(t *testing.T) {
	for name, channels := range map[string][]string{
		"duplicate": {"ch1", "ch1"},
		"empty":     {"ch1", ""},
		"unsafe":    {"ch/1"},
	} {
		cfg := PaperConfig(10, true)
		cfg.Channels = channels
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: channel list %q accepted", name, channels)
		}
	}
}

// TestMultiChannelNetworkCommitsInParallel drives concurrent traffic into
// two channels of one network: both must commit everything, converge on
// every peer, and stay fully independent (own heights, own documents, own
// ordering services).
func TestMultiChannelNetworkCommitsInParallel(t *testing.T) {
	n := newMultiNet(t, 10, peer.CommitterConfig{}, "ch1", "ch2")
	if got := n.Channels(); !reflect.DeepEqual(got, []string{"ch1", "ch2"}) {
		t.Fatalf("Channels = %v", got)
	}
	s1, err := n.OrdererOn("ch1")
	if err != nil {
		t.Fatal(err)
	}
	s2, err := n.OrdererOn("ch2")
	if err != nil {
		t.Fatal(err)
	}
	if s1 == s2 {
		t.Fatal("channels share an ordering service")
	}
	if _, err := n.OrdererOn("nope"); err == nil {
		t.Fatal("unknown channel resolved an orderer")
	}
	n.Start()
	defer n.Stop()

	const perChannel = 20
	var wg sync.WaitGroup
	for _, ch := range []string{"ch1", "ch2"} {
		c, err := n.NewClientOn(ch, "Org1", "client-"+ch, []string{"Org1"})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < perChannel; i++ {
			wg.Add(1)
			go func(c interface {
				SubmitAndWait(time.Duration, string, ...[]byte) (ledger.ValidationCode, error)
			}, ch string, i int) {
				defer wg.Done()
				if _, err := c.SubmitAndWait(10*time.Second, "iot", []byte("record"), []byte("dev1"), []byte(fmt.Sprintf("%s-%d", ch, i))); err != nil {
					t.Errorf("%s tx %d: %v", ch, i, err)
				}
			}(c, ch, i)
		}
	}
	wg.Wait()
	n.Stop()
	if err := n.Err(); err != nil {
		t.Fatal(err)
	}

	// Each channel converged across all six peers, independently.
	for _, ch := range []string{"ch1", "ch2"} {
		var want []byte
		for _, p := range n.Peers() {
			db, err := p.DBOn(ch)
			if err != nil {
				t.Fatal(err)
			}
			vv, ok := db.Get("dev1")
			if !ok {
				t.Fatalf("peer %s missing dev1 on %s", p.Name(), ch)
			}
			if want == nil {
				want = vv.Value
				var doc map[string]any
				if err := json.Unmarshal(vv.Value, &doc); err != nil {
					t.Fatal(err)
				}
				if readings := doc["tempReadings"].([]any); len(readings) != perChannel {
					t.Fatalf("%s readings = %d, want %d (no update loss per channel)", ch, len(readings), perChannel)
				}
				continue
			}
			if string(vv.Value) != string(want) {
				t.Fatalf("peer %s diverged on %s", p.Name(), ch)
			}
			chain, err := p.ChainOn(ch)
			if err != nil {
				t.Fatal(err)
			}
			if err := chain.Verify(); err != nil {
				t.Fatalf("peer %s chain on %s: %v", p.Name(), ch, err)
			}
		}
	}
	// The two channels hold different documents (different readings), and
	// block numbering advanced independently on each.
	db1, _ := n.Peers()[0].DBOn("ch1")
	db2, _ := n.Peers()[0].DBOn("ch2")
	v1, _ := db1.Get("dev1")
	v2, _ := db2.Get("dev1")
	if string(v1.Value) == string(v2.Value) {
		t.Fatal("channels returned identical documents — state is shared, not sharded")
	}
	for _, ch := range []string{"ch1", "ch2"} {
		h, err := n.Peers()[0].HeightOn(ch)
		if err != nil {
			t.Fatal(err)
		}
		if h == 0 {
			t.Fatalf("channel %s committed no blocks", ch)
		}
	}
}

// TestMultiClientRoundRobin spreads submissions over both channels via the
// facade's round-robin helper and checks both shards advanced.
func TestMultiClientRoundRobin(t *testing.T) {
	n := newMultiNet(t, 5, peer.CommitterConfig{}, "ch1", "ch2")
	n.Start()
	defer n.Stop()
	mc, err := n.NewMultiClient("Org2", "rr-client", []string{"Org2"})
	if err != nil {
		t.Fatal(err)
	}
	if got := mc.Channels(); !reflect.DeepEqual(got, []string{"ch1", "ch2"}) {
		t.Fatalf("MultiClient channels = %v", got)
	}
	const total = 20
	counts := make(map[string]int)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < total; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ch, code, err := mc.SubmitAndWaitRoundRobin(10*time.Second, "iot", []byte("record"), []byte("devRR"), []byte(fmt.Sprintf("%d", i)))
			if err != nil {
				t.Errorf("tx %d: %v", i, err)
				return
			}
			if !code.Committed() {
				t.Errorf("tx %d: code %v", i, code)
				return
			}
			mu.Lock()
			counts[ch]++
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	n.Stop()
	if err := n.Err(); err != nil {
		t.Fatal(err)
	}
	if counts["ch1"] != total/2 || counts["ch2"] != total/2 {
		t.Fatalf("round-robin split = %v, want %d/%d", counts, total/2, total/2)
	}
	// Named-channel submit + per-channel client access also work.
	if _, err := mc.On("ch2"); err != nil {
		t.Fatal(err)
	}
	if _, err := mc.On("nope"); err == nil {
		t.Fatal("unknown channel resolved")
	}
}

// TestTwoChannelNetworkRestart is the acceptance test: an LSM-backed
// 2-channel network is stopped with its channels at different heights and
// rebuilt over the same directory — every peer must resume each channel at
// its own height with byte-identical per-channel state, and both channels
// must keep committing from their own resume points.
func TestTwoChannelNetworkRestart(t *testing.T) {
	dir := t.TempDir()
	committer := peer.CommitterConfig{Backend: peer.BackendLSM, DataDir: dir}

	n := newMultiNet(t, 10, committer, "ch1", "ch2")
	n.Start()
	// Unequal load: ch1 gets 3× the traffic of ch2, so the channels stop
	// at different heights.
	submitOn := func(n *Network, ch string, count, base int) {
		t.Helper()
		c, err := n.NewClientOn(ch, "Org1", fmt.Sprintf("client-%s-%d", ch, base), []string{"Org1"})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		errs := make([]error, count)
		for i := 0; i < count; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				_, errs[i] = c.SubmitAndWait(10*time.Second, "iot", []byte("record"), []byte("dev1"), []byte(fmt.Sprintf("%d", base+i)))
			}(i)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("%s tx %d: %v", ch, i, err)
			}
		}
	}
	submitOn(n, "ch1", 30, 0)
	submitOn(n, "ch2", 10, 0)
	n.Stop()
	if err := n.Err(); err != nil {
		t.Fatal(err)
	}

	heights := make(map[string]uint64)
	states := make(map[string][]byte)
	for _, ch := range []string{"ch1", "ch2"} {
		h, err := n.Peers()[0].HeightOn(ch)
		if err != nil {
			t.Fatal(err)
		}
		if h == 0 {
			t.Fatalf("channel %s committed nothing before restart", ch)
		}
		heights[ch] = h
		db, err := n.Peers()[0].DBOn(ch)
		if err != nil {
			t.Fatal(err)
		}
		vv, ok := db.Get("dev1")
		if !ok {
			t.Fatalf("dev1 missing on %s before restart", ch)
		}
		states[ch] = vv.Value
	}
	if heights["ch1"] == heights["ch2"] {
		t.Fatalf("channels stopped at the same height (%d) — the test needs diverging heights", heights["ch1"])
	}

	// Rebuild the whole network over the same directory.
	n2 := newMultiNet(t, 10, committer, "ch1", "ch2")
	for _, p := range n2.Peers() {
		for _, ch := range []string{"ch1", "ch2"} {
			got, err := p.HeightOn(ch)
			if err != nil {
				t.Fatal(err)
			}
			if got != heights[ch] {
				t.Fatalf("peer %s resumed %s at %d, want %d", p.Name(), ch, got, heights[ch])
			}
			db, err := p.DBOn(ch)
			if err != nil {
				t.Fatal(err)
			}
			vv, ok := db.Get("dev1")
			if !ok || string(vv.Value) != string(states[ch]) {
				t.Fatalf("peer %s state on %s diverged across restart", p.Name(), ch)
			}
		}
	}
	n2.Start()
	submitOn(n2, "ch1", 10, 1000)
	submitOn(n2, "ch2", 10, 1000)
	n2.Stop()
	if err := n2.Err(); err != nil {
		t.Fatal(err)
	}
	for _, p := range n2.Peers() {
		for _, ch := range []string{"ch1", "ch2"} {
			got, err := p.HeightOn(ch)
			if err != nil {
				t.Fatal(err)
			}
			if got <= heights[ch] {
				t.Fatalf("peer %s channel %s did not advance past %d", p.Name(), ch, heights[ch])
			}
			chain, err := p.ChainOn(ch)
			if err != nil {
				t.Fatal(err)
			}
			if err := chain.Verify(); err != nil {
				t.Fatalf("peer %s chain on %s after restart: %v", p.Name(), ch, err)
			}
		}
	}
	// No update loss on either channel across the restart.
	for ch, before := range map[string]int{"ch1": 30, "ch2": 10} {
		db, err := n2.Peers()[0].DBOn(ch)
		if err != nil {
			t.Fatal(err)
		}
		vv, _ := db.Get("dev1")
		var doc map[string]any
		if err := json.Unmarshal(vv.Value, &doc); err != nil {
			t.Fatal(err)
		}
		if readings := doc["tempReadings"].([]any); len(readings) != before+10 {
			t.Fatalf("%s readings after restart = %d, want %d", ch, len(readings), before+10)
		}
	}
}

// TestTwoChannelRestartRejectsPartialWipe wipes one peer's single-channel
// store between runs: the network must refuse to assemble rather than let
// that channel resume from diverging histories — while the intact channel
// alone would have been fine.
func TestTwoChannelRestartRejectsPartialWipe(t *testing.T) {
	dir := t.TempDir()
	committer := peer.CommitterConfig{Backend: peer.BackendLSM, DataDir: dir}
	n := newMultiNet(t, 10, committer, "ch1", "ch2")
	n.Start()
	c, err := n.NewClientOn("ch2", "Org1", "client0", []string{"Org1"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := c.SubmitAndWait(10*time.Second, "iot", []byte("record"), []byte("dev1"), []byte(fmt.Sprintf("%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	n.Stop()
	if err := n.Err(); err != nil {
		t.Fatal(err)
	}
	if err := wipeChannelStore(dir, "Org2.peer1", "ch2"); err != nil {
		t.Fatal(err)
	}
	cfg := PaperConfig(10, true)
	cfg.Channels = []string{"ch1", "ch2"}
	cfg.Committer = committer
	if _, err := New(cfg); err == nil {
		t.Fatal("network assembled with one channel's stores at diverging heights")
	}
}
