// Incremental dataset maintenance: batch row addition and retirement that
// update the cached columnar Index by copy-on-write delta instead of
// discarding it.
//
// AddRows appends the batch's cells to the dataset's columns past their
// ends, where no snapshot reads. The delta snapshot shares the *colStats
// of every column the batch did not touch: its bitset, row column and
// first-value IDs keep their pre-delta length, which readers treat as
// absent trailing rows (CoSupport and the rule engine's co-occurrence
// sweep both clamp to the shorter set). A touched column is finished
// again from its pre-delta statistics: the old dictionary entries keep
// their IDs and order, the batch's new values follow in first-appearance
// order, and the counts are bumped in a copy. RetireRows compacts every
// column into new storage, in order, and rebuilds the dictionary of each
// column that lost cells, because retiring a value's first occurrence can
// move that value behind others. Either way the dictionary and the
// entropy summed over it in order are field-for-field identical (floats
// included) to a rebuild from scratch over the same rows.
package dataset

import (
	"slices"
	"sort"

	"repro/internal/conftypes"
)

// AddRows gives the dataset a row of its own for each of rows, which may
// view any dataset's storage, holding the same values, and declares any
// attribute they hold that is not yet a column (sorted by name, so column
// order is deterministic; with type String exactly as Add would). If a
// columnar snapshot is cached it is replaced with a delta snapshot in
// O(touched columns + Δrows) instead of being discarded.
func (d *Dataset) AddRows(rows ...*Row) {
	if len(rows) == 0 {
		return
	}
	var fresh []string
	for _, row := range rows {
		row.Each(func(name string, _ []string) {
			if _, ok := d.tab.index[name]; !ok && !slices.Contains(fresh, name) {
				fresh = append(fresh, name)
			}
		})
	}
	sort.Strings(fresh)
	for _, name := range fresh {
		d.DeclareAttr(name, conftypes.TypeString, false)
	}
	ix, base := d.idx.Load(), len(d.Rows)
	d.Grow(len(rows))
	for _, row := range rows {
		r := d.NewRow(row.SystemID)
		row.Each(func(name string, vs []string) { d.Set(r, d.tab.index[name], vs) })
	}
	if ix != nil {
		d.idx.Store(ix.withRowsAdded(d, base))
	}
}

// RetireRows removes every row whose SystemID is in ids, preserving the
// order of the remaining rows, and returns the removed rows in their
// original order; they keep viewing the storage they were removed from.
// The remaining rows move to a compacted copy of every column. Columns
// stay declared even if the retirement empties them. A cached columnar
// snapshot is updated by delta: columns that lost no cells keep their
// memoized statistics, the others are recomputed.
func (d *Dataset) RetireRows(ids ...string) []*Row {
	if len(ids) == 0 {
		return nil
	}
	retire := make(map[string]bool, len(ids))
	for _, id := range ids {
		retire[id] = true
	}
	var removed []*Row
	kept := d.Rows[:0]
	for _, row := range d.Rows {
		if retire[row.SystemID] {
			removed = append(removed, row)
		} else {
			kept = append(kept, row)
		}
	}
	if len(removed) == 0 {
		return nil
	}
	clear(d.Rows[len(kept):]) // release retired row pointers from the backing array
	d.Rows = kept
	t := &table{index: d.tab.index, cols: make([]column, len(d.tab.cols))}
	from := make([]int, len(kept)) // each kept row's old position
	for i, row := range kept {
		from[i], row.pos, row.t = row.pos, i, t
	}
	for i, c := range d.tab.cols {
		t.cols[i].name = c.name
		for r, old := range from {
			if vs := c.at(old); vs != nil {
				*t.cols[i].cell(r, len(kept)) = vs
			}
		}
	}
	d.tab = t
	if ix := d.idx.Load(); ix != nil {
		d.idx.Store(buildIndex(d, ix, from))
	}
	return removed
}

// withRowsAdded builds the post-append snapshot: columns untouched by the
// rows appended from base on are shared (their shorter bitsets read as
// implicit zeros for the new rows); touched columns are finished again
// from their pre-delta statistics over the new rows.
func (ix *Index) withRowsAdded(d *Dataset, base int) *Index {
	nrows := len(d.Rows)
	nwords := (nrows + 63) / 64
	nix := &Index{rows: nrows, cols: make(map[string]*colStats, len(d.attrs))}
	for name, c := range ix.cols {
		nix.cols[name] = c
	}
	var b dictBuilder
	for i, a := range d.attrs {
		vals := d.tab.cols[i].vals
		if len(vals) <= base {
			continue // no cell in the new rows: the column ends before them
		}
		old := ix.col(a.Name)
		c := &colStats{bits: make([]uint64, nwords), rowVals: vals, firstIDs: make([]int32, nrows),
			present: old.present, instances: old.instances}
		copy(c.bits, old.bits)
		copy(c.firstIDs, old.firstIDs)
		b.begin()
		b.seed(old.dict, old.counts)
		// Rows between the old column's end and base are absent.
		b.fill(c, len(old.firstIDs))
		b.end(c)
		nix.cols[a.Name] = c
	}
	b.finish()
	return nix
}
