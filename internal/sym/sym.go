// Package sym provides string interning for database entities.
//
// Every entity in a loosely structured database is a distinctly named
// member of the universe E (paper §2.1). Interning maps each distinct
// name to a dense uint32 ID so facts can be stored and joined as fixed
// size integer triples. A Table is safe for concurrent use, and its
// reads of names (Name, Len, Each) take no lock: sort comparators and
// result encoders resolve names on every browse read.
package sym

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// ID identifies an interned entity name. The zero ID is reserved and
// never returned by Intern; it is used by other packages as "no entity".
type ID uint32

// None is the reserved zero ID.
const None ID = 0

// Table interns strings to IDs and resolves IDs back to strings.
//
// The names are an append-only slice published through an atomic
// pointer: Intern appends under mu and publishes the longer slice, so
// a reader's loaded slice never changes under it — an element is
// written before the slice that covers it is published, and never
// written again. Only the ids map needs mu.
type Table struct {
	mu    sync.RWMutex
	ids   map[string]ID
	names atomic.Pointer[[]string] // (*names)[i] is the name of ID(i); [0] is ""
}

// NewTable returns an empty interning table.
func NewTable() *Table {
	t := &Table{ids: make(map[string]ID)}
	t.names.Store(&[]string{""})
	return t
}

// Intern returns the ID for name, allocating one if necessary.
// The empty string is not a valid entity name and panics.
func (t *Table) Intern(name string) ID {
	if name == "" {
		panic("sym: empty entity name")
	}
	t.mu.RLock()
	id, ok := t.ids[name]
	t.mu.RUnlock()
	if ok {
		return id
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if id, ok := t.ids[name]; ok {
		return id
	}
	names := append(*t.names.Load(), name)
	id = ID(len(names) - 1)
	t.ids[name] = id
	t.names.Store(&names)
	return id
}

// Lookup returns the ID for name, or (None, false) if name was never interned.
func (t *Table) Lookup(name string) (ID, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	id, ok := t.ids[name]
	return id, ok
}

// Name returns the string for id. It panics on an ID that was never issued.
func (t *Table) Name(id ID) string {
	names := *t.names.Load()
	if int(id) >= len(names) || id == None {
		panic(fmt.Sprintf("sym: unknown ID %d", id))
	}
	return names[id]
}

// Len returns the number of interned names.
func (t *Table) Len() int {
	return len(*t.names.Load()) - 1
}

// Each calls fn for every (id, name) pair interned before the call, in
// allocation order, until fn returns false.
func (t *Table) Each(fn func(ID, string) bool) {
	names := *t.names.Load()
	for i := 1; i < len(names); i++ {
		if !fn(ID(i), names[i]) {
			return
		}
	}
}
