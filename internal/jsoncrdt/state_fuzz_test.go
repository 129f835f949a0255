package jsoncrdt

import (
	"bytes"
	"testing"
)

// FuzzDocState holds the persisted-document decoder to its contract on
// arbitrary input: UnmarshalBinary returns an error, never panics, and a
// state it accepts re-marshals to bytes that decode and re-marshal to the
// same bytes (a peer that reloads a document it stored must store it back
// unchanged). Persisted documents come from disk and, through
// RebuildState, from blocks other peers delivered, so they are untrusted.
// The committed corpus lives under testdata/fuzz/FuzzDocState.
func FuzzDocState(f *testing.F) {
	doc := NewDoc("p0")
	if err := doc.MergeJSON(map[string]any{
		"name":     "sensor",
		"readings": []any{map[string]any{"t": "21"}, 3.5, true},
		"nested":   map[string]any{"k": "v"},
	}); err != nil {
		f.Fatal(err)
	}
	valid, err := doc.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)

	f.Fuzz(func(t *testing.T, data []byte) {
		var d Doc
		if err := d.UnmarshalBinary(data); err != nil {
			return
		}
		first, err := d.MarshalBinary()
		if err != nil {
			t.Fatalf("re-marshal of an accepted state: %v", err)
		}
		var again Doc
		if err := again.UnmarshalBinary(first); err != nil {
			t.Fatalf("decoding a re-marshaled state: %v\n%s", err, first)
		}
		second, err := again.MarshalBinary()
		if err != nil {
			t.Fatalf("second re-marshal: %v", err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("re-marshal is not stable:\n%s\n%s", first, second)
		}
	})
}
