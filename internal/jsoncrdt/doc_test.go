package jsoncrdt

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"fabriccrdt/internal/lamport"
)

func TestEditAssignAndGet(t *testing.T) {
	doc := NewDoc("p0")
	if _, err := doc.Assign("e23df70a", "deviceID"); err != nil {
		t.Fatal(err)
	}
	got, ok := doc.Get("deviceID")
	if !ok || got != "e23df70a" {
		t.Fatalf("Get(deviceID) = %v, %v", got, ok)
	}
}

func TestEditAppendAndLen(t *testing.T) {
	doc := NewDoc("p0")
	if _, err := doc.Append("a", "tags"); err != nil {
		t.Fatal(err)
	}
	if _, err := doc.Append("b", "tags"); err != nil {
		t.Fatal(err)
	}
	if n := doc.Len("tags"); n != 2 {
		t.Fatalf("Len = %d, want 2", n)
	}
	got, _ := doc.Get("tags")
	if !reflect.DeepEqual(got, []any{"a", "b"}) {
		t.Fatalf("tags = %v", got)
	}
}

func TestEditInsertAtHeadAndMiddle(t *testing.T) {
	doc := NewDoc("p0")
	for _, s := range []string{"b", "d"} {
		if _, err := doc.Append(s, "l"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := doc.InsertAt(0, "a", "l"); err != nil {
		t.Fatal(err)
	}
	if _, err := doc.InsertAt(2, "c", "l"); err != nil {
		t.Fatal(err)
	}
	got, _ := doc.Get("l")
	if !reflect.DeepEqual(got, []any{"a", "b", "c", "d"}) {
		t.Fatalf("list = %v, want [a b c d]", got)
	}
}

func TestEditDeleteMapKey(t *testing.T) {
	doc := NewDoc("p0")
	if _, err := doc.Assign("x", "k"); err != nil {
		t.Fatal(err)
	}
	if _, err := doc.Delete("k"); err != nil {
		t.Fatal(err)
	}
	if _, ok := doc.Get("k"); ok {
		t.Fatal("k still visible after delete")
	}
	if _, ok := doc.ToJSON()["k"]; ok {
		t.Fatal("k still rendered after delete")
	}
}

func TestEditDeleteListElement(t *testing.T) {
	doc := NewDoc("p0")
	for _, s := range []string{"a", "b", "c"} {
		if _, err := doc.Append(s, "l"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := doc.Delete("l", "1"); err != nil {
		t.Fatal(err)
	}
	got, _ := doc.Get("l")
	if !reflect.DeepEqual(got, []any{"a", "c"}) {
		t.Fatalf("after delete: %v, want [a c]", got)
	}
	// Tombstone must keep ordering stable for later inserts.
	if _, err := doc.InsertAt(1, "B", "l"); err != nil {
		t.Fatal(err)
	}
	got, _ = doc.Get("l")
	if !reflect.DeepEqual(got, []any{"a", "B", "c"}) {
		t.Fatalf("after reinsert: %v, want [a B c]", got)
	}
}

func TestEditNestedContainers(t *testing.T) {
	doc := NewDoc("p0")
	if _, err := doc.Assign(EmptyMap, "device"); err != nil {
		t.Fatal(err)
	}
	if _, err := doc.Assign("dev-1", "device", "id"); err != nil {
		t.Fatal(err)
	}
	if _, err := doc.Assign(EmptyList, "device", "readings"); err != nil {
		t.Fatal(err)
	}
	if _, err := doc.Append(21.5, "device", "readings"); err != nil {
		t.Fatal(err)
	}
	want := map[string]any{"device": map[string]any{"id": "dev-1", "readings": []any{21.5}}}
	if got := doc.ToJSON(); !reflect.DeepEqual(got, want) {
		t.Fatalf("doc = %v, want %v", got, want)
	}
}

func TestEditAssignOverwritesContainer(t *testing.T) {
	doc := NewDoc("p0")
	if _, err := doc.Append("x", "k"); err != nil {
		t.Fatal(err)
	}
	if _, err := doc.Assign("scalar-now", "k"); err != nil {
		t.Fatal(err)
	}
	got, _ := doc.Get("k")
	if got != "scalar-now" {
		t.Fatalf("k = %v, want scalar-now", got)
	}
}

func TestEditErrors(t *testing.T) {
	doc := NewDoc("p0")
	if _, err := doc.Assign("v"); err == nil {
		t.Error("Assign with empty path must fail")
	}
	if _, err := doc.Delete(); err == nil {
		t.Error("Delete with empty path must fail")
	}
	if _, err := doc.InsertAt(3, "v", "nosuch"); err == nil {
		t.Error("InsertAt beyond missing list must fail")
	}
	if _, err := doc.Assign(struct{}{}, "k"); err == nil {
		t.Error("Assign with unsupported type must fail")
	}
	if _, err := doc.Delete("nosuch"); err == nil {
		t.Error("Delete of missing key must fail")
	}
}

func TestApplyOpIdempotent(t *testing.T) {
	doc := NewDoc("p0", WithOpLog())
	if _, err := doc.Assign("v", "k"); err != nil {
		t.Fatal(err)
	}
	ops := doc.TakeOps()
	if len(ops) != 1 {
		t.Fatalf("op log has %d entries, want 1", len(ops))
	}
	before := doc.AppliedCount()
	if err := doc.ApplyOp(ops[0]); err != nil {
		t.Fatal(err)
	}
	if doc.AppliedCount() != before {
		t.Fatal("re-applying an op changed the document")
	}
}

func TestApplyOpValidation(t *testing.T) {
	doc := NewDoc("p0")
	if err := doc.ApplyOp(Operation{}); err == nil {
		t.Fatal("zero op must be rejected")
	}
	op := Operation{
		ID:     lamport.ID{Counter: 1, Replica: "x"},
		Cursor: Cursor{MapKey("k")},
		Mut:    Mutation{Kind: MutationKind(99)},
	}
	if err := doc.ApplyOp(op); err == nil {
		t.Fatal("bad mutation kind must be rejected")
	}
}

func TestPendingOpWaitsForDependency(t *testing.T) {
	src := NewDoc("src", WithOpLog())
	if _, err := src.Append("a", "l"); err != nil {
		t.Fatal(err)
	}
	if _, err := src.Append("b", "l"); err != nil {
		t.Fatal(err)
	}
	ops := src.TakeOps()
	dst := NewDoc("dst")
	// Apply the second op first: it inserts after the first op's element,
	// which does not exist yet, so it must be buffered.
	if err := dst.ApplyOp(ops[1]); err != nil {
		t.Fatal(err)
	}
	if dst.PendingCount() != 1 {
		t.Fatalf("pending = %d, want 1", dst.PendingCount())
	}
	if err := dst.ApplyOp(ops[0]); err != nil {
		t.Fatal(err)
	}
	if dst.PendingCount() != 0 {
		t.Fatalf("pending = %d after dependency arrived, want 0", dst.PendingCount())
	}
	got, _ := dst.Get("l")
	if !reflect.DeepEqual(got, []any{"a", "b"}) {
		t.Fatalf("list = %v, want [a b]", got)
	}
}

func TestConcurrentAssignConflictResolution(t *testing.T) {
	a := NewDoc("a", WithOpLog())
	b := NewDoc("b", WithOpLog())
	if _, err := a.Assign("from-a", "k"); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Assign("from-b", "k"); err != nil {
		t.Fatal(err)
	}
	opsA, opsB := a.TakeOps(), b.TakeOps()
	for _, op := range opsB {
		if err := a.ApplyOp(op); err != nil {
			t.Fatal(err)
		}
	}
	for _, op := range opsA {
		if err := b.ApplyOp(op); err != nil {
			t.Fatal(err)
		}
	}
	va, _ := a.Get("k")
	vb, _ := b.Get("k")
	if va != vb {
		t.Fatalf("replicas disagree: %v vs %v", va, vb)
	}
	// Both concurrent values must be observable.
	conflicts := a.ConflictsAt("k")
	if len(conflicts) != 2 {
		t.Fatalf("conflicts = %v, want 2 values", conflicts)
	}
	// Same counter (1) on both; replica "b" sorts above "a", so b's write
	// renders.
	if va != "from-b" {
		t.Fatalf("rendered value = %v, want from-b (greater Lamport ID)", va)
	}
}

func TestAddWinsDeleteVsConcurrentInsert(t *testing.T) {
	// Replica A deletes the list; concurrently replica B appends. After
	// exchange, B's element must survive (add-wins).
	a := NewDoc("a", WithOpLog())
	b := NewDoc("b", WithOpLog())
	if _, err := a.Append("old", "l"); err != nil {
		t.Fatal(err)
	}
	for _, op := range a.TakeOps() {
		if err := b.ApplyOp(op); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := a.Delete("l"); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Append("new", "l"); err != nil {
		t.Fatal(err)
	}
	opsA, opsB := a.TakeOps(), b.TakeOps()
	for _, op := range opsB {
		if err := a.ApplyOp(op); err != nil {
			t.Fatal(err)
		}
	}
	for _, op := range opsA {
		if err := b.ApplyOp(op); err != nil {
			t.Fatal(err)
		}
	}
	ga, _ := a.Get("l")
	gb, _ := b.Get("l")
	if !reflect.DeepEqual(ga, gb) {
		t.Fatalf("replicas diverged: %v vs %v", ga, gb)
	}
	if !reflect.DeepEqual(ga, []any{"new"}) {
		t.Fatalf("list = %v, want [new] (delete clears old, concurrent add survives)", ga)
	}
}

// TestConvergenceUnderPermutedDelivery is the core CRDT property: replicas
// applying the same operations in different (dependency-respecting) orders
// converge. Delivery order is shuffled; the pending queue handles gaps.
func TestConvergenceUnderPermutedDelivery(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		src := NewDoc("src", WithOpLog())
		nops := 2 + rng.Intn(20)
		for i := 0; i < nops; i++ {
			var err error
			switch rng.Intn(4) {
			case 0:
				_, err = src.Assign(string(rune('a'+rng.Intn(26))), "key"+string(rune('0'+rng.Intn(3))))
			case 1:
				_, err = src.Append(float64(rng.Intn(100)), "list"+string(rune('0'+rng.Intn(2))))
			case 2:
				if src.Len("list0") > 0 {
					_, err = src.Delete("list0", "0")
				} else {
					_, err = src.Append("seed", "list0")
				}
			case 3:
				_, err = src.Assign(EmptyMap, "m")
				if err == nil {
					_, err = src.Assign(float64(trial), "m", "inner")
				}
			}
			if err != nil {
				t.Fatalf("trial %d op %d: %v", trial, i, err)
			}
		}
		ops := src.TakeOps()
		perm := rng.Perm(len(ops))
		dst := NewDoc("dst")
		for _, idx := range perm {
			if err := dst.ApplyOp(ops[idx]); err != nil {
				t.Fatalf("trial %d: apply shuffled op: %v", trial, err)
			}
		}
		if dst.PendingCount() != 0 {
			t.Fatalf("trial %d: %d ops stuck pending", trial, dst.PendingCount())
		}
		if !reflect.DeepEqual(src.ToJSON(), dst.ToJSON()) {
			t.Fatalf("trial %d: divergence\nsrc=%v\ndst=%v\norder=%v", trial, src.ToJSON(), dst.ToJSON(), perm)
		}
	}
}

// Property test: merging arbitrary JSON-shaped maps never errors and the
// result is reproducible on a second replica.
func TestMergeJSONDeterminismProperty(t *testing.T) {
	gen := func(seed int64) map[string]any {
		rng := rand.New(rand.NewSource(seed))
		return randomJSONObject(rng, 3)
	}
	f := func(seed int64) bool {
		obj := gen(seed)
		a, b := NewDoc("r"), NewDoc("r")
		if err := a.MergeJSON(obj); err != nil {
			return false
		}
		if err := b.MergeJSON(obj); err != nil {
			return false
		}
		return reflect.DeepEqual(a.ToJSON(), b.ToJSON())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// randomJSONObject builds a random JSON-shaped object with bounded depth.
func randomJSONObject(rng *rand.Rand, depth int) map[string]any {
	n := 1 + rng.Intn(4)
	obj := make(map[string]any, n)
	for i := 0; i < n; i++ {
		key := "k" + string(rune('a'+rng.Intn(8)))
		obj[key] = randomJSONValue(rng, depth)
	}
	return obj
}

func randomJSONValue(rng *rand.Rand, depth int) any {
	if depth <= 0 {
		return float64(rng.Intn(1000))
	}
	switch rng.Intn(5) {
	case 0:
		return "s" + string(rune('a'+rng.Intn(26)))
	case 1:
		return float64(rng.Intn(1000))
	case 2:
		return rng.Intn(2) == 0
	case 3:
		n := rng.Intn(3)
		l := make([]any, n)
		for i := range l {
			l[i] = randomJSONValue(rng, depth-1)
		}
		return l
	default:
		return randomJSONObject(rng, depth-1)
	}
}

func TestRGAConcurrentInsertConvergence(t *testing.T) {
	// Two replicas concurrently insert at the head of the same list; after
	// exchanging ops both must order the elements identically.
	seed := NewDoc("seed", WithOpLog())
	if _, err := seed.Append("base", "l"); err != nil {
		t.Fatal(err)
	}
	seedOps := seed.TakeOps()

	a := NewDoc("a", WithOpLog())
	b := NewDoc("b", WithOpLog())
	for _, op := range seedOps {
		if err := a.ApplyOp(op); err != nil {
			t.Fatal(err)
		}
		if err := b.ApplyOp(op); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := a.InsertAt(0, "from-a", "l"); err != nil {
		t.Fatal(err)
	}
	if _, err := b.InsertAt(0, "from-b", "l"); err != nil {
		t.Fatal(err)
	}
	opsA, opsB := a.TakeOps(), b.TakeOps()
	for _, op := range opsB {
		if err := a.ApplyOp(op); err != nil {
			t.Fatal(err)
		}
	}
	for _, op := range opsA {
		if err := b.ApplyOp(op); err != nil {
			t.Fatal(err)
		}
	}
	ga, _ := a.Get("l")
	gb, _ := b.Get("l")
	if !reflect.DeepEqual(ga, gb) {
		t.Fatalf("replicas diverged: %v vs %v", ga, gb)
	}
	if len(ga.([]any)) != 3 {
		t.Fatalf("list = %v, want 3 elements", ga)
	}
}

func TestStateRoundTrip(t *testing.T) {
	doc := NewDoc("p0")
	deltas := []string{
		`{"deviceID": "e23df70a", "temperatureReadings": [{"temperature": 25}]}`,
		`{"temperatureReadings": [{"temperature": 30}, {"temperature": 15}]}`,
	}
	for _, ds := range deltas {
		if err := doc.MergeJSON(mustJSON(t, ds)); err != nil {
			t.Fatal(err)
		}
	}
	data, err := doc.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	back := NewDoc("other")
	if err := back.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.ToJSON(), back.ToJSON()) {
		t.Fatalf("state round trip diverged:\n%v\n%v", doc.ToJSON(), back.ToJSON())
	}
	if back.Replica() != "p0" {
		t.Fatalf("replica = %q, want p0", back.Replica())
	}
	// The restored clock must continue past the persisted counter.
	if err := back.MergeJSON(mustJSON(t, `{"x": "y"}`)); err != nil {
		t.Fatal(err)
	}
	data2, err := back.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if string(data2) == string(data) {
		t.Fatal("state did not change after further merge")
	}
}

func TestStateRoundTripDeterministic(t *testing.T) {
	doc := NewDoc("p0")
	if err := doc.MergeJSON(mustJSON(t, `{"a": ["x"], "b": {"c": 1}}`)); err != nil {
		t.Fatal(err)
	}
	d1, err := doc.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	clone, err := doc.Clone()
	if err != nil {
		t.Fatal(err)
	}
	d2, err := clone.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if string(d1) != string(d2) {
		t.Fatalf("clone serialization differs:\n%s\n%s", d1, d2)
	}
}

func TestUnmarshalBinaryErrors(t *testing.T) {
	doc := NewDoc("p0")
	for _, bad := range []string{
		"", "{", `{"applied": ["notanid"], "root": {}}`,
		// Entries with no body: a null map entry and a list element
		// without an entry (both once dereferenced nil).
		`{"replica":"r","counter":1,"root":{"entries":{"a":null}}}`,
		`{"replica":"r","counter":1,"root":{"entries":{"a":{"list":[{"id":"1@r"}]}}}}`,
	} {
		if err := doc.UnmarshalBinary([]byte(bad)); err == nil {
			t.Errorf("UnmarshalBinary(%q) succeeded, want error", bad)
		}
	}
}

func TestCursorString(t *testing.T) {
	c := Cursor{MapKey("a"), ListElem(lamport.ID{Counter: 3, Replica: "p"}), MapKey("b")}
	if got := c.String(); got != "/a/[3@p]/b" {
		t.Fatalf("cursor string = %q", got)
	}
	if got := (Cursor{}).String(); got != "/" {
		t.Fatalf("empty cursor string = %q", got)
	}
}

func BenchmarkMergeJSONSmallDelta(b *testing.B) {
	delta := map[string]any{
		"tempReadings": []any{map[string]any{"temperature": "21"}},
	}
	b.ReportAllocs()
	doc := NewDoc("p0")
	for i := 0; i < b.N; i++ {
		if err := doc.MergeJSON(delta); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkToJSONGrownDoc(b *testing.B) {
	doc := NewDoc("p0")
	delta := map[string]any{
		"tempReadings": []any{map[string]any{"temperature": "21"}},
	}
	for i := 0; i < 1000; i++ {
		if err := doc.MergeJSON(delta); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = doc.ToJSON()
	}
}

func BenchmarkStateRoundTrip(b *testing.B) {
	doc := NewDoc("p0")
	delta := map[string]any{
		"tempReadings": []any{map[string]any{"temperature": "21"}},
	}
	for i := 0; i < 100; i++ {
		if err := doc.MergeJSON(delta); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		data, err := doc.MarshalBinary()
		if err != nil {
			b.Fatal(err)
		}
		back := NewDoc("x")
		if err := back.UnmarshalBinary(data); err != nil {
			b.Fatal(err)
		}
	}
}
