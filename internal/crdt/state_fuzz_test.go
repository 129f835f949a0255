package crdt

import (
	"bytes"
	"testing"
)

// FuzzRegistryUnmarshal holds the typed-state decoder to its contract on
// arbitrary input: Registry.Unmarshal returns an error, never panics, and a
// state it accepts yields its value and re-marshals to bytes that decode
// and re-marshal to the same bytes. Persisted typed states come from disk
// and, through RebuildState, from blocks other peers delivered, so they
// are untrusted. The committed corpus lives under
// testdata/fuzz/FuzzRegistryUnmarshal.
func FuzzRegistryUnmarshal(f *testing.F) {
	g := NewGCounter()
	g.Increment("p0", 3)
	pn := NewPNCounter()
	pn.Increment("p1", -2)
	gs := NewGSet()
	gs.Add("a")
	or := NewORSet()
	or.Bind("p0")
	or.Add("x")
	or.Remove("x")
	or.Add("y")
	reg := NewLWWRegister()
	reg.Bind("p0")
	reg.Set("v")
	m := NewLWWMap()
	m.Bind("p0")
	m.Set("k", "v")
	m.Delete("k")
	gr := NewGraph()
	gr.Bind("p0")
	gr.AddVertex("a")
	gr.AddVertex("b")
	gr.AddEdge("a", "b")
	for _, c := range []CRDT{g, pn, gs, or, reg, m, gr} {
		data, err := Marshal(c)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}

	r := NewRegistry()
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := r.Unmarshal(data)
		if err != nil {
			return
		}
		_ = c.Value()
		first, err := Marshal(c)
		if err != nil {
			t.Fatalf("re-marshal of an accepted %s state: %v", c.TypeName(), err)
		}
		again, err := r.Unmarshal(first)
		if err != nil {
			t.Fatalf("decoding a re-marshaled %s state: %v\n%s", c.TypeName(), err, first)
		}
		second, err := Marshal(again)
		if err != nil {
			t.Fatalf("second re-marshal: %v", err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("re-marshal is not stable:\n%s\n%s", first, second)
		}
	})
}
