package jsoncrdt

import (
	"bytes"
	"encoding/json"
	"testing"
)

// mergeDelta runs one delta through the same steps a committing peer does:
// the depth bound, the JSON decode and Algorithm 2. An error refuses the
// delta.
func mergeDelta(doc *Doc, data []byte) error {
	if err := CheckDepth(data); err != nil {
		return err
	}
	var v any
	if err := json.Unmarshal(data, &v); err != nil {
		return err
	}
	return doc.MergeJSON(v)
}

// FuzzMergeJSON merges arbitrary pairs of JSON deltas into one document
// and holds every accepted merge to the persistence contract: no panic,
// the state marshals, reloads and re-marshals to identical bytes, and the
// reloaded document renders the same JSON as the live one. A delta that
// passes the checks but builds a state no peer can reload would wedge its
// key on every peer, so this is the merge path's own decoder gate. The
// committed corpus under testdata/fuzz/FuzzMergeJSON includes deltas
// nested far past MaxDepth, which once merged into unloadable states.
func FuzzMergeJSON(f *testing.F) {
	f.Add([]byte(`{"tempReadings":[{"temperature":"15"}]}`), []byte(`{"tempReadings":[{"temperature":"20"}]}`))

	f.Fuzz(func(t *testing.T, first, second []byte) {
		doc := NewDoc("p0")
		for _, delta := range [][]byte{first, second} {
			if err := mergeDelta(doc, delta); err != nil {
				continue
			}
			state, err := doc.MarshalBinary()
			if err != nil {
				t.Fatalf("marshaling an accepted merge: %v", err)
			}
			var reloaded Doc
			if err := reloaded.UnmarshalBinary(state); err != nil {
				t.Fatalf("reloading an accepted merge: %v\n%s", err, state)
			}
			again, err := reloaded.MarshalBinary()
			if err != nil {
				t.Fatalf("re-marshaling a reloaded state: %v", err)
			}
			if !bytes.Equal(state, again) {
				t.Fatalf("state does not round-trip:\n%s\n%s", state, again)
			}
			live, err := json.Marshal(doc.ToJSON())
			if err != nil {
				t.Fatalf("rendering the live document: %v", err)
			}
			rendered, err := json.Marshal(reloaded.ToJSON())
			if err != nil {
				t.Fatalf("rendering the reloaded document: %v", err)
			}
			if !bytes.Equal(live, rendered) {
				t.Fatalf("ToJSON differs after reload:\n%s\n%s", live, rendered)
			}
		}
	})
}
