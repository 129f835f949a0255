package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"fabriccrdt/internal/core"
	"fabriccrdt/internal/ledger"
)

// docKeys are the documents the run's successful ops of kind touched, in
// key order: the hot document on hot-doc, otherwise one per distinct
// target.
func (d *deployment) docKeys(recs []opRec, kind opKind) []string {
	if d.w.conflictPct == 100 {
		return []string{d.keyOf(0)}
	}
	set := make(map[string]bool)
	for _, r := range recs {
		if r.kind == kind && r.ok {
			set[d.keyOf(r.idx)] = true
		}
	}
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// check verifies the run's outputs on the live network and returns every
// problem found: all six peers at one height with verified chains, the
// hot document (or every document a read fetched) byte-identical on every
// peer, both the persisted CRDT state and the rendered value, every write
// committed as CRDT_MERGED, and the hot document holding one reading per
// committed write.
func (d *deployment) check(recs []opRec) []string {
	var problems []string
	if err := d.waitHeights(30 * time.Second); err != nil {
		return append(problems, err.Error())
	}
	for _, p := range d.net.Peers() {
		chain, err := p.ChainOn(d.ch)
		if err == nil {
			err = chain.Verify()
		}
		if err != nil {
			problems = append(problems, fmt.Sprintf("chain of %s: %v", p.Name(), err))
		}
	}
	writes, merged := 0, 0
	for _, r := range recs {
		if r.kind != opWrite {
			continue
		}
		writes++
		if r.ok && r.code == ledger.CodeCRDTMerged {
			merged++
		}
	}
	if merged != writes {
		problems = append(problems, fmt.Sprintf("%d of %d writes ended CRDT_MERGED (first other: %s)",
			merged, writes, firstFailure(recs)))
	}
	keys := d.docKeys(recs, opRead)
	ref := d.net.Peers()[0]
	refDB, err := ref.DBOn(d.ch)
	if err != nil {
		return append(problems, err.Error())
	}
	for _, p := range d.net.Peers()[1:] {
		db, err := p.DBOn(d.ch)
		if err != nil {
			return append(problems, err.Error())
		}
		for _, k := range keys {
			want, _ := refDB.Get(k)
			got, _ := db.Get(k)
			if !bytes.Equal(want.Value, got.Value) ||
				!bytes.Equal(refDB.GetMeta(core.MetaPrefix+k), db.GetMeta(core.MetaPrefix+k)) {
				problems = append(problems, fmt.Sprintf("document %s differs between %s and %s", k, ref.Name(), p.Name()))
				break
			}
		}
	}
	if d.w.conflictPct == 100 {
		vv, _ := refDB.Get(keys[0])
		if n, err := readingCount(vv.Value); err != nil {
			problems = append(problems, fmt.Sprintf("hot document: %v", err))
		} else if n != merged {
			problems = append(problems, fmt.Sprintf("hot document holds %d readings, %d writes committed", n, merged))
		}
	}
	return problems
}

// readingCount is the length of a device document's reading list (the
// IoT workload's "temperatureReadings1").
func readingCount(doc []byte) (int, error) {
	var parsed struct {
		Readings []json.RawMessage `json:"temperatureReadings1"`
	}
	if err := json.Unmarshal(doc, &parsed); err != nil {
		return 0, fmt.Errorf("decoding document: %w", err)
	}
	return len(parsed.Readings), nil
}
