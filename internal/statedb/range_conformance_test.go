package statedb

import (
	"reflect"
	"testing"

	"fabriccrdt/internal/rwset"
)

// TestRangeConformance pins the Range contract every backend must agree
// on, including the degenerate inputs that historically diverged (a
// nil slice for empty scans):
//
//   - [start, end) sorted ascending
//   - empty end means "to the last key"
//   - start == end is an empty scan
//   - start > end is an empty scan, not a panic or a wrap-around
//   - the result is always non-nil, even when empty
func TestRangeConformance(t *testing.T) {
	type backendCase struct {
		name string
		db   *DB
	}
	newBackends := func(t *testing.T) []backendCase {
		t.Helper()
		// Tiny thresholds so LSM range scans really merge memtable + runs.
		lsm, err := NewLSMWithOptions(t.TempDir(), tinyLSMOptions())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { lsm.Close() })
		return []backendCase{
			{"memory", New()},
			{"lsm", lsm},
		}
	}

	seedKeys := []string{"a", "b", "c", "m", "x", "z"}
	seed := func(dbs []backendCase) {
		for blk, k := range seedKeys {
			batch := NewUpdateBatch()
			batch.Put(k, []byte("v-"+k), rwset.Version{BlockNum: uint64(blk + 1)})
			for _, bc := range dbs {
				bc.db.Apply(batch, rwset.Version{BlockNum: uint64(blk + 1)})
			}
		}
	}

	keysOf := func(kvs []KV) []string {
		keys := make([]string, len(kvs))
		for i, kv := range kvs {
			keys[i] = kv.Key
		}
		return keys
	}

	cases := []struct {
		name       string
		start, end string
		wantKeys   []string
	}{
		{"full-scan", "", "", []string{"a", "b", "c", "m", "x", "z"}},
		{"empty-end-means-to-last-key", "m", "", []string{"m", "x", "z"}},
		{"empty-end-from-last-key", "z", "", []string{"z"}},
		{"bounded", "b", "x", []string{"b", "c", "m"}},
		{"start-equals-end", "m", "m", []string{}},
		{"start-after-end", "x", "b", []string{}},
		{"both-past-keyspace", "zz", "zzz", []string{}},
		{"start-past-keyspace-empty-end", "zz", "", []string{}},
		{"end-before-keyspace", "", "a", []string{}},
	}

	t.Run("populated", func(t *testing.T) {
		dbs := newBackends(t)
		seed(dbs)
		for _, tc := range cases {
			for _, bc := range dbs {
				got := bc.db.GetRange(tc.start, tc.end)
				if got == nil {
					t.Errorf("%s/%s: Range returned nil, want non-nil empty slice", tc.name, bc.name)
					continue
				}
				if !reflect.DeepEqual(keysOf(got), tc.wantKeys) {
					t.Errorf("%s/%s: keys = %v, want %v", tc.name, bc.name, keysOf(got), tc.wantKeys)
				}
			}
			// And all backends agree byte-for-byte, not just on keys.
			want := dbs[0].db.GetRange(tc.start, tc.end)
			for _, bc := range dbs[1:] {
				if got := bc.db.GetRange(tc.start, tc.end); !reflect.DeepEqual(want, got) {
					t.Errorf("%s: %s diverged from memory:\nwant %v\ngot  %v", tc.name, bc.name, want, got)
				}
			}
		}
	})

	t.Run("empty-store", func(t *testing.T) {
		dbs := newBackends(t)
		for _, bounds := range [][2]string{{"", ""}, {"a", ""}, {"a", "a"}, {"b", "a"}} {
			for _, bc := range dbs {
				got := bc.db.GetRange(bounds[0], bounds[1])
				if got == nil || len(got) != 0 {
					t.Errorf("empty store %s: Range(%q, %q) = %v, want non-nil empty", bc.name, bounds[0], bounds[1], got)
				}
			}
		}
	})

	// Deletes must not resurface under any bound shape (the LSM merges
	// tombstones across memtable and runs here).
	t.Run("after-deletes", func(t *testing.T) {
		dbs := newBackends(t)
		seed(dbs)
		del := NewUpdateBatch()
		del.Delete("c", rwset.Version{BlockNum: 10})
		del.Delete("z", rwset.Version{BlockNum: 10})
		for _, bc := range dbs {
			bc.db.Apply(del, rwset.Version{BlockNum: 10})
		}
		want := []string{"a", "b", "m", "x"}
		for _, bc := range dbs {
			if got := keysOf(bc.db.GetRange("", "")); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: keys after delete = %v, want %v", bc.name, got, want)
			}
			if got := bc.db.GetRange("c", "d"); len(got) != 0 || got == nil {
				t.Errorf("%s: deleted key still ranges: %v", bc.name, got)
			}
			if got := bc.db.GetRange("z", ""); len(got) != 0 || got == nil {
				t.Errorf("%s: deleted last key still ranges under empty end: %v", bc.name, got)
			}
		}
	})

	// A reopen must not change any answer for the durable backend.
	t.Run("after-reopen", func(t *testing.T) {
		lsmDir := t.TempDir()
		lsm, err := NewLSMWithOptions(lsmDir, tinyLSMOptions())
		if err != nil {
			t.Fatal(err)
		}
		mem := New()
		dbs := []backendCase{{"memory", mem}, {"lsm", lsm}}
		seed(dbs)
		waitCompactions(lsm)
		if err := lsm.Close(); err != nil {
			t.Fatal(err)
		}
		if lsm, err = NewLSMWithOptions(lsmDir, tinyLSMOptions()); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { lsm.Close() })
		for _, tc := range cases {
			want := mem.GetRange(tc.start, tc.end)
			for _, bc := range []backendCase{{"lsm", lsm}} {
				got := bc.db.GetRange(tc.start, tc.end)
				if got == nil || !reflect.DeepEqual(want, got) {
					t.Errorf("%s/%s after reopen:\nwant %v\ngot  %v", tc.name, bc.name, want, got)
				}
			}
		}
	})

	// The conformance harness also cross-checks randomized bounds so new
	// backends cannot pass on the handpicked cases alone.
	t.Run("randomized-bounds", func(t *testing.T) {
		dbs := newBackends(t)
		seed(dbs)
		bounds := []string{"", "a", "a0", "b", "c", "m", "mm", "x", "z", "z0", "zz"}
		for _, s := range bounds {
			for _, e := range bounds {
				want := dbs[0].db.GetRange(s, e)
				if want == nil {
					t.Fatalf("memory backend returned nil for Range(%q, %q)", s, e)
				}
				for _, bc := range dbs[1:] {
					if got := bc.db.GetRange(s, e); !reflect.DeepEqual(want, got) {
						t.Errorf("Range(%q, %q) on %s diverged:\nwant %v\ngot  %v", s, e, bc.name, want, got)
					}
				}
			}
		}
	})
}
