package statedb

import (
	"bytes"
	"testing"

	"fabriccrdt/internal/rwset"
)

func TestBatchRecordRoundTrip(t *testing.T) {
	updates := map[string]Update{
		"alive":   {Value: []byte("v1"), Version: rwset.Version{BlockNum: 3, TxNum: 2}},
		"gone":    {IsDelete: true, Version: rwset.Version{BlockNum: 3, TxNum: 4}},
		"empty":   {Value: nil, Version: rwset.Version{BlockNum: 3, TxNum: 5}},
		"bin\x00": {Value: []byte{0, 1, 2, 255}, Version: rwset.Version{BlockNum: 1, TxNum: 0}},
	}
	meta := map[string][]byte{"crdt/alive": []byte(`{"doc":1}`), "crdt/zero": {}}
	height := rwset.Version{BlockNum: 3, TxNum: 9}
	gotU, gotM, gotH, err := decodeBatch(encodeBatch(updates, meta, height))
	if err != nil {
		t.Fatal(err)
	}
	if gotH != height {
		t.Fatalf("height = %v, want %v", gotH, height)
	}
	if len(gotU) != len(updates) {
		t.Fatalf("updates = %v", gotU)
	}
	for k, want := range updates {
		got := gotU[k]
		if got.IsDelete != want.IsDelete || got.Version != want.Version || !bytes.Equal(got.Value, want.Value) {
			t.Fatalf("update %q = %+v, want %+v", k, got, want)
		}
	}
	for k, want := range meta {
		if !bytes.Equal(gotM[k], want) {
			t.Fatalf("meta %q = %q, want %q", k, gotM[k], want)
		}
	}
}

func TestBatchRecordRejectsCorruptStructure(t *testing.T) {
	good := encodeBatch(map[string]Update{"k": {Value: []byte("v"), Version: rwset.Version{BlockNum: 1}}},
		map[string][]byte{"m": []byte("x")}, rwset.Version{BlockNum: 1})
	cases := map[string][]byte{
		"empty":         {},
		"bad-version":   append([]byte{42}, good[1:]...),
		"truncated":     good[:len(good)-3],
		"trailing-junk": append(append([]byte(nil), good...), 1, 2, 3),
	}
	for name, buf := range cases {
		if _, _, _, err := decodeBatch(buf); err == nil {
			t.Errorf("%s: decodeBatch accepted corrupt record", name)
		}
	}
}
