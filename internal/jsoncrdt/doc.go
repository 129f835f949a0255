// Package jsoncrdt implements the conflict-free replicated JSON datatype of
// Kleppmann & Beresford (IEEE TPDS 2017) as used by FabricCRDT
// (Middleware '19, §5.2).
//
// A Doc is a replicated JSON document. Local edits — and, centrally for
// FabricCRDT, whole JSON objects merged via MergeJSON (the paper's
// Algorithm 2) — generate Operations stamped with Lamport identifiers.
// Operations commute: replicas that apply the same set of operations, in any
// order consistent with the operations' dependencies, converge to the same
// document. ToJSON strips all CRDT metadata and returns the plain value.
package jsoncrdt

import (
	"errors"
	"fmt"
	"sort"

	"fabriccrdt/internal/lamport"
)

// Errors returned by document operations.
var (
	ErrMissingListElem = errors.New("jsoncrdt: cursor references unknown list element")
	ErrNotAList        = errors.New("jsoncrdt: insert target holds no list")
	ErrRootNotObject   = errors.New("jsoncrdt: merged value must be a JSON object")
	ErrUnsupportedType = errors.New("jsoncrdt: unsupported Go value in JSON merge")
	ErrTooDeep         = errors.New("jsoncrdt: JSON value nests too deeply")
)

// Doc is a replicated JSON document. The zero value is unusable; construct
// with NewDoc. Doc is not safe for concurrent use; FabricCRDT's committer
// drives each document from a single goroutine, mirroring Fabric's
// sequential block validation.
type Doc struct {
	clock   *lamport.Clock
	root    *mapNode
	applied idSet
	pending []Operation

	// log accumulates locally generated operations when retention is
	// enabled, so library users can replicate a document by shipping ops.
	log       []Operation
	retainLog bool
}

// Option configures a Doc.
type Option func(*Doc)

// WithOpLog makes the document retain every locally generated operation for
// later retrieval through TakeOps (used to replicate documents op-by-op).
func WithOpLog() Option {
	return func(d *Doc) { d.retainLog = true }
}

// NewDoc returns an empty document whose operations are stamped with the
// given replica identifier.
func NewDoc(replica string, opts ...Option) *Doc {
	d := &Doc{
		clock:   lamport.NewClock(replica),
		root:    newMapNode(),
		applied: make(idSet),
	}
	for _, o := range opts {
		o(d)
	}
	return d
}

// Replica returns the replica identifier of the document's clock.
func (d *Doc) Replica() string { return d.clock.Replica() }

// Clock returns the identifier of the most recently issued operation.
func (d *Doc) Clock() lamport.ID { return d.clock.Now() }

// AppliedCount returns the number of operations applied so far.
func (d *Doc) AppliedCount() int { return len(d.applied) }

// PendingCount returns the number of operations buffered while waiting for
// their dependencies.
func (d *Doc) PendingCount() int { return len(d.pending) }

// TakeOps returns and clears the locally generated operation log. It returns
// nil unless the document was created with WithOpLog.
func (d *Doc) TakeOps() []Operation {
	ops := d.log
	d.log = nil
	return ops
}

// Applied reports whether the operation with the given ID has been applied.
func (d *Doc) Applied(id lamport.ID) bool { return d.applied.has(id) }

// errWaiting signals that an operation references state (a dependency or a
// list element) that has not arrived yet; the caller buffers the operation.
var errWaiting = errors.New("jsoncrdt: operation waiting for dependency")

// ApplyOp applies a (typically remote) operation. Application is idempotent:
// re-applying an operation is a no-op. If any dependency has not yet been
// applied the operation is buffered and retried automatically once its
// dependencies arrive; buffering is not an error.
//
// Paper §5.2: "if some of the operations are missing, we queue the operation
// until all dependencies are applied."
func (d *Doc) ApplyOp(op Operation) error {
	if err := op.Validate(); err != nil {
		return err
	}
	if d.applied.has(op.ID) {
		return nil
	}
	err := d.tryApply(op)
	if errors.Is(err, errWaiting) {
		d.pending = append(d.pending, op)
		return nil
	}
	if err != nil {
		return err
	}
	return d.drainPending()
}

// tryApply applies op unless a dependency is missing, in which case it
// returns errWaiting without having modified the document.
func (d *Doc) tryApply(op Operation) error {
	if !d.depsSatisfied(op) {
		return errWaiting
	}
	if err := d.precheck(op); err != nil {
		return err
	}
	return d.apply(op)
}

// depsSatisfied reports whether every dependency of op has been applied.
func (d *Doc) depsSatisfied(op Operation) bool {
	for _, dep := range op.Deps {
		if !d.applied.has(dep) {
			return false
		}
	}
	return true
}

// drainPending repeatedly applies buffered operations whose dependencies
// have become satisfied, until a fixpoint.
func (d *Doc) drainPending() error {
	for progress := true; progress && len(d.pending) > 0; {
		progress = false
		queue := d.pending
		var remaining []Operation
		for _, op := range queue {
			if d.applied.has(op.ID) {
				continue // duplicate buffered twice; drop
			}
			err := d.tryApply(op)
			switch {
			case errors.Is(err, errWaiting):
				remaining = append(remaining, op)
			case err != nil:
				return err
			default:
				progress = true
			}
		}
		d.pending = remaining
	}
	return nil
}

// precheck verifies, without modifying the document, that every list element
// the operation references (cursor steps and the insert anchor) exists. A
// missing element means the operation that creates it has not arrived; the
// caller buffers the operation. Missing map keys are fine: apply creates
// them.
func (d *Doc) precheck(op Operation) error {
	var (
		curMap  = d.root
		curList *listNode
		e       *entry
	)
	for i, step := range op.Cursor {
		switch step.Kind {
		case CursorMapKey:
			if curMap == nil {
				// Branch not materialized yet: acceptable only if no later
				// step (or the insert anchor) needs an existing element.
				if cursorNeedsElems(op, i) {
					return errWaiting
				}
				return nil
			}
			e = curMap.child(step.Key, false)
		case CursorListElem:
			if curList == nil {
				return errWaiting
			}
			el := curList.find(step.Elem)
			if el == nil {
				return errWaiting
			}
			e = el.ent
		}
		if e == nil {
			if cursorNeedsElems(op, i) {
				return errWaiting
			}
			return nil
		}
		curMap, curList = nil, nil
		if i+1 < len(op.Cursor) {
			switch op.Cursor[i+1].Kind {
			case CursorMapKey:
				curMap = e.mapN
			case CursorListElem:
				curList = e.list
			}
		}
	}
	if op.Mut.Kind == MutInsert && !op.Mut.After.IsZero() {
		if e == nil || e.list == nil || e.list.find(op.Mut.After) == nil {
			return errWaiting
		}
	}
	return nil
}

// cursorNeedsElems reports whether any cursor step at or after index i
// addresses a list element, or the mutation anchors an insert on one — the
// cases where an unmaterialized path means a missing dependency rather than
// a key that apply can create.
func cursorNeedsElems(op Operation, i int) bool {
	for _, step := range op.Cursor[i+1:] {
		if step.Kind == CursorListElem {
			return true
		}
	}
	return op.Mut.Kind == MutInsert && !op.Mut.After.IsZero()
}

// apply performs the mutation of op against the tree. The caller has already
// checked idempotence, dependencies and (via precheck) list-element
// existence.
func (d *Doc) apply(op Operation) error {
	target, err := d.resolve(op)
	if err != nil {
		return err
	}
	deps := make(idSet, len(op.Deps))
	for _, dep := range op.Deps {
		deps.add(dep)
	}
	switch op.Mut.Kind {
	case MutAssign:
		target.clear(deps)
		target.pres.add(op.ID)
		d.applyValue(target, op.ID, op.Mut.Value)
	case MutInsert:
		l := target.ensureList()
		var ref *listElem
		if !op.Mut.After.IsZero() {
			ref = l.find(op.Mut.After)
			if ref == nil {
				return fmt.Errorf("%w: insert anchor %s", ErrMissingListElem, op.Mut.After)
			}
		}
		el := l.insertAfter(ref, op.ID)
		el.ent.pres.add(op.ID)
		d.applyValue(el.ent, op.ID, op.Mut.Value)
	case MutDelete:
		target.clear(deps)
	default:
		return fmt.Errorf("%w: kind %d", ErrBadMutation, int(op.Mut.Kind))
	}
	d.applied.add(op.ID)
	d.clock.Witness(op.ID)
	return nil
}

// applyValue writes a mutation payload into an entry.
func (d *Doc) applyValue(e *entry, id lamport.ID, v Value) {
	switch v.Kind {
	case ValEmptyMap:
		e.ensureMap()
	case ValEmptyList:
		e.ensureList()
	default:
		if e.reg == nil {
			e.reg = make(map[lamport.ID]Value)
		}
		e.reg[id] = v
	}
}

// resolve walks the cursor from the root, creating map entries and container
// branches as needed and stamping op.ID into the presence set of every entry
// along the path (so that a concurrent delete higher up does not erase this
// operation's effect). It returns the entry the mutation targets.
func (d *Doc) resolve(op Operation) (*entry, error) {
	var (
		curMap  = d.root
		curList *listNode
		target  *entry
	)
	for i, step := range op.Cursor {
		switch step.Kind {
		case CursorMapKey:
			if curMap == nil {
				return nil, fmt.Errorf("%w: map step %q inside non-map at %s", ErrTypeConflict, step.Key, Cursor(op.Cursor[:i]))
			}
			target = curMap.child(step.Key, true)
		case CursorListElem:
			if curList == nil {
				return nil, fmt.Errorf("%w: list step at %s", ErrTypeConflict, Cursor(op.Cursor[:i]))
			}
			el := curList.find(step.Elem)
			if el == nil {
				return nil, fmt.Errorf("%w: %s", ErrMissingListElem, step.Elem)
			}
			target = el.ent
		default:
			return nil, fmt.Errorf("%w: step kind %d", ErrBadCursor, int(step.Kind))
		}
		target.pres.add(op.ID)
		curMap, curList = nil, nil
		if i+1 < len(op.Cursor) {
			// Descend into the branch matching the next step's kind.
			switch op.Cursor[i+1].Kind {
			case CursorMapKey:
				curMap = target.ensureMap()
			case CursorListElem:
				curList = target.ensureList()
			}
		}
	}
	return target, nil
}

// --- Local edit API -------------------------------------------------------

// newLocalOp stamps a fresh operation and applies it locally.
func (d *Doc) newLocalOp(cursor Cursor, mut Mutation, deps idSet) (Operation, error) {
	ids := make([]lamport.ID, 0, len(deps))
	//lint:sorted collected dep IDs are sorted below before stamping the op
	for id := range deps {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i].Less(ids[j]) })
	op := Operation{
		ID:     d.clock.Tick(),
		Deps:   ids,
		Cursor: cursor,
		Mut:    mut,
	}
	if err := op.Validate(); err != nil {
		return Operation{}, err
	}
	if err := d.apply(op); err != nil {
		return Operation{}, err
	}
	if d.retainLog {
		d.log = append(d.log, op)
	}
	return op, nil
}

// liveIDsAt returns the set of operation IDs visible in the subtree the
// cursor addresses; an assign or delete there must clear exactly this set so
// that causally prior content vanishes while concurrent content survives.
func (d *Doc) liveIDsAt(cursor Cursor) idSet {
	deps := make(idSet)
	e := d.lookup(cursor)
	if e != nil {
		e.liveIDs(deps)
	}
	return deps
}

// lookup walks the cursor without creating or stamping anything, returning
// nil if the path does not exist.
func (d *Doc) lookup(cursor Cursor) *entry {
	var (
		curMap  = d.root
		curList *listNode
		target  *entry
	)
	for i, step := range cursor {
		switch step.Kind {
		case CursorMapKey:
			if curMap == nil {
				return nil
			}
			target = curMap.child(step.Key, false)
		case CursorListElem:
			if curList == nil {
				return nil
			}
			el := curList.find(step.Elem)
			if el == nil {
				return nil
			}
			target = el.ent
		}
		if target == nil {
			return nil
		}
		curMap, curList = nil, nil
		if i+1 < len(cursor) {
			switch cursor[i+1].Kind {
			case CursorMapKey:
				curMap = target.mapN
			case CursorListElem:
				curList = target.list
			}
		}
	}
	return target
}
