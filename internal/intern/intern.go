// Package intern provides a bounded, process-wide string interning table.
//
// A scanned corpus repeats the same short strings endlessly: every image
// carries the same owners, groups, shells, application names, and config
// file paths. Interning collapses those duplicates to one canonical copy
// each, which (a) lets per-image decode garbage die young, and (b) gives
// strings decoded out of a reused buffer storage of their own. Parsed
// configuration keys are not interned: they alias the file content, as
// the values beside them do.
//
// The table only ever grows to MaxEntries canonical strings; past that,
// lookups still deduplicate against existing entries but misses pass
// through uninterned, so adversarial high-cardinality input cannot grow
// the table without bound.
package intern

import "sync"

// MaxEntries bounds the table size.
const MaxEntries = 1 << 16

var table = struct {
	sync.RWMutex
	m map[string]string
}{m: make(map[string]string, 1024)}

// String returns the canonical copy of s, storing s itself on first sight
// (while the table has room).
func String(s string) string {
	if s == "" {
		return ""
	}
	table.RLock()
	c, ok := table.m[s]
	table.RUnlock()
	if ok {
		return c
	}
	table.Lock()
	defer table.Unlock()
	if c, ok := table.m[s]; ok {
		return c
	}
	if len(table.m) >= MaxEntries {
		return s
	}
	table.m[s] = s
	return s
}

// Bytes returns the canonical string for b, allocating only when b has
// never been seen (map lookups on string(b) do not allocate).
func Bytes(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	table.RLock()
	c, ok := table.m[string(b)]
	table.RUnlock()
	if ok {
		return c
	}
	table.Lock()
	defer table.Unlock()
	if c, ok := table.m[string(b)]; ok {
		return c
	}
	s := string(b)
	if len(table.m) >= MaxEntries {
		return s
	}
	table.m[s] = s
	return s
}

// BytesInto fills dst[i] with the canonical string for at(i), exactly as
// per-element Bytes calls would, but amortizes table locking: one read
// lock for the whole batch, and one write lock only if the batch had
// misses. Decoding a plan's string table is hundreds of lookups back to
// back — per-call locking is measurable there. at is called with
// 0..len(dst)-1 and must be pure (it runs twice for missed indices).
func BytesInto(dst []string, at func(i int) []byte) {
	table.RLock()
	misses := 0
	for i := range dst {
		b := at(i)
		if len(b) == 0 {
			dst[i] = ""
			continue
		}
		c, ok := table.m[string(b)]
		if !ok {
			misses++
			dst[i] = ""
			continue
		}
		dst[i] = c
	}
	table.RUnlock()
	if misses == 0 {
		return
	}
	table.Lock()
	defer table.Unlock()
	for i := range dst {
		b := at(i)
		if dst[i] != "" || len(b) == 0 {
			continue
		}
		if c, ok := table.m[string(b)]; ok {
			dst[i] = c
			continue
		}
		s := string(b)
		if len(table.m) < MaxEntries {
			table.m[s] = s
		}
		dst[i] = s
	}
}

// Len reports the current table size (for tests and diagnostics).
func Len() int {
	table.RLock()
	defer table.RUnlock()
	return len(table.m)
}
