// Package intern provides the identifier intern tables of the ingest
// hot path: compact int32 ids assigned once (at plant registration, or
// on first sight for the open job-id namespace), so every downstream
// layer — shard routing, the idempotent store, roll-up leaves, the
// OLAP cube, the snapshot — compares, hashes and stores ints instead of
// strings. The string forms stay the wire/API surface; translation
// happens exactly twice, at batch admission and when a query is
// answered. Durable forms keep the ids and store the name list beside
// them (NewDyn rebuilds the same assignment from it).
package intern

import "sync"

// Table is a fixed intern table: the id universe is closed at
// construction (topology registration). Lookups are read-only and
// therefore safe for concurrent use without locking.
type Table struct {
	names []string
	ids   map[string]int32
}

// New builds a table interning names in order: names[i] gets id
// int32(i). A duplicate name keeps its first id.
func New(names []string) *Table {
	t := &Table{names: names, ids: make(map[string]int32, len(names))}
	for i, n := range names {
		if _, dup := t.ids[n]; !dup {
			t.ids[n] = int32(i)
		}
	}
	return t
}

// ID resolves a name, reporting whether it is interned.
func (t *Table) ID(name string) (int32, bool) {
	id, ok := t.ids[name]
	return id, ok
}

// Name returns the name of id; it panics on an id the table never
// assigned (ids only come from ID/Intern, so that is a caller bug).
func (t *Table) Name(id int32) string { return t.names[id] }

// Len returns the number of interned names.
func (t *Table) Len() int { return len(t.names) }

// Names returns the backing name list, indexed by id. Callers must not
// mutate it.
func (t *Table) Names() []string { return t.names }

// DynTable is a growable intern table for the one open identifier
// namespace (job ids, which arrive with the data rather than the
// topology). Interning takes the write lock only on first sight; the
// steady state is a read-locked map hit.
type DynTable struct {
	mu    sync.RWMutex
	names []string
	ids   map[string]int32
}

// NewDyn builds a dynamic table pre-seeded with names in order —
// the snapshot-restore path uses this to reproduce the exact id
// assignment the snapshot was captured under.
func NewDyn(names []string) *DynTable {
	t := &DynTable{ids: make(map[string]int32, len(names))}
	for _, n := range names {
		t.intern(n)
	}
	return t
}

// Intern resolves name to its id, assigning the next free id on first
// sight. Ids never reach a response, and a durable form that holds them
// holds Names() too, so concurrent first-sights on different shards may
// order ids differently between runs without observable effect.
func (t *DynTable) Intern(name string) int32 {
	t.mu.RLock()
	id, ok := t.ids[name]
	t.mu.RUnlock()
	if ok {
		return id
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.intern(name)
}

func (t *DynTable) intern(name string) int32 {
	if id, ok := t.ids[name]; ok {
		return id
	}
	id := int32(len(t.names))
	t.names = append(t.names, name)
	t.ids[name] = id
	return id
}

// ID resolves a name without interning it.
func (t *DynTable) ID(name string) (int32, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	id, ok := t.ids[name]
	return id, ok
}

// Name returns the name of an assigned id.
func (t *DynTable) Name(id int32) string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.names[id]
}

// Len returns the number of interned names.
func (t *DynTable) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.names)
}

// Names returns a copy of the name list, indexed by id.
func (t *DynTable) Names() []string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return append([]string(nil), t.names...)
}
