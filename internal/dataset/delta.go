// Incremental dataset maintenance: batch row addition and retirement that
// update the cached columnar Index by copy-on-write delta instead of
// discarding it.
//
// The delta snapshots share *colStats pointers for columns the batch did
// not touch. A shared column's bitset keeps its pre-delta word count —
// shorter than the new snapshot's — which readers treat as implicit
// trailing zeros (CoSupport and the rule engine's co-occurrence sweep both
// clamp to the shorter set), and its row column and first-value IDs keep
// their pre-delta length (the missing rows are absent). Touched columns
// are copied. An added batch extends a touched column's dictionary: the
// old entries keep their IDs and order, the batch's new values follow in
// first-appearance order, and the counts are bumped in the copy. A
// retirement rebuilds the dictionary of every column that lost cells over
// the surviving rows, because retiring a value's first occurrence can move
// that value behind others. Either way the dictionary is in the order a
// from-scratch build would give it, and entropy is summed over its counts
// in that order, so a delta-maintained index is field-for-field identical
// (floats included) to one rebuilt from scratch over the same rows. Row
// retirement compacts in order — never swap-removes — precisely to
// preserve that order.
package dataset

import (
	"sort"

	"repro/internal/conftypes"
)

// AddRows appends assembled rows to the dataset in order, declaring any
// attribute the rows mention that is not yet a column (sorted by name, so
// column order is deterministic; first declaration wins, with type String
// exactly as Add would declare it). If a columnar snapshot is cached it is
// replaced with a delta snapshot in O(touched columns + Δrows) instead of
// being discarded.
func (d *Dataset) AddRows(rows ...*Row) {
	if len(rows) == 0 {
		return
	}
	var newNames []string
	for _, row := range rows {
		for name := range row.Cells {
			if _, ok := d.index[name]; !ok {
				d.index[name] = -1 // placeholder to dedup within the batch
				newNames = append(newNames, name)
			}
		}
	}
	for _, name := range newNames {
		delete(d.index, name)
	}
	sort.Strings(newNames)
	for _, name := range newNames {
		d.DeclareAttr(name, conftypes.TypeString, false)
	}
	base := len(d.Rows)
	d.Rows = append(d.Rows, rows...)
	if ix := d.idx.Load(); ix != nil {
		d.idx.Store(ix.withRowsAdded(rows, base))
	}
}

// RetireRows removes every row whose SystemID is in ids, preserving the
// order of the remaining rows, and returns the removed rows in their
// original order. Columns stay declared even if the retirement empties
// them. A cached columnar snapshot is updated by delta: untouched columns
// keep their memoized statistics, touched ones are recomputed.
func (d *Dataset) RetireRows(ids ...string) []*Row {
	if len(ids) == 0 {
		return nil
	}
	retire := make(map[string]bool, len(ids))
	for _, id := range ids {
		retire[id] = true
	}
	removedAt := make([]bool, len(d.Rows))
	var removed []*Row
	kept := d.Rows[:0]
	for i, row := range d.Rows {
		if retire[row.SystemID] {
			removedAt[i] = true
			removed = append(removed, row)
			continue
		}
		kept = append(kept, row)
	}
	if len(removed) == 0 {
		return nil
	}
	for i := len(kept); i < len(d.Rows); i++ {
		d.Rows[i] = nil // release retired row pointers from the backing array
	}
	d.Rows = kept
	if ix := d.idx.Load(); ix != nil {
		d.idx.Store(ix.withRowsRetired(removedAt))
	}
	return removed
}

// withRowsAdded builds the post-append snapshot: columns untouched by the
// new rows are shared (their shorter bitsets read as implicit zeros for
// the new rows), touched columns are copied, extended, and re-memoized.
func (ix *Index) withRowsAdded(rows []*Row, base int) *Index {
	nrows := base + len(rows)
	nwords := (nrows + 63) / 64
	nix := &Index{rows: nrows, words: nwords, cols: make(map[string]*colStats, len(ix.cols))}
	for name, c := range ix.cols {
		nix.cols[name] = c
	}
	touched := make(map[string]*colStats)
	touch := func(name string) *colStats {
		if c, ok := touched[name]; ok {
			return c
		}
		old := ix.col(name)
		c := &colStats{bits: make([]uint64, nwords), rowVals: make([][]string, nrows), firstIDs: make([]int32, nrows)}
		copy(c.bits, old.bits)
		copy(c.rowVals, old.rowVals)
		for r := copy(c.firstIDs, old.firstIDs); r < nrows; r++ {
			c.firstIDs[r] = -1
		}
		c.present, c.instances = old.present, old.instances
		touched[name] = c
		nix.cols[name] = c
		return c
	}
	for i, row := range rows {
		r := base + i
		for name, vs := range row.Cells {
			if len(vs) == 0 {
				continue
			}
			c := touch(name)
			c.bits[r>>6] |= 1 << (r & 63)
			c.rowVals[r] = vs
			c.present++
			c.instances += len(vs)
		}
	}
	var b dictBuilder
	for name, c := range touched {
		old := ix.col(name)
		b.begin()
		b.seed(old.dict, old.counts)
		for r := base; r < nrows; r++ {
			vs := c.rowVals[r]
			if len(vs) == 0 {
				continue
			}
			c.firstIDs[r] = b.add(vs[0])
			for _, v := range vs[1:] {
				b.add(v)
			}
		}
		b.end(c)
	}
	b.finish()
	return nix
}

// withRowsRetired builds the post-retirement snapshot. removedAt marks the
// retired positions in the pre-retirement row order. Every column is
// re-packed (row indices shift), but only columns that actually lost cells
// pay the dictionary rebuild — for the rest the surviving value sequence
// is unchanged, so the dictionary and memoized statistics are carried
// over and only the first-value IDs move with their rows.
func (ix *Index) withRowsRetired(removedAt []bool) *Index {
	nrows := ix.rows
	for _, rm := range removedAt {
		if rm {
			nrows--
		}
	}
	nwords := (nrows + 63) / 64
	nix := &Index{rows: nrows, words: nwords, cols: make(map[string]*colStats, len(ix.cols))}
	var b dictBuilder
	for name, old := range ix.cols {
		c := &colStats{bits: make([]uint64, nwords), rowVals: make([][]string, nrows), firstIDs: make([]int32, nrows)}
		w := 0
		for r := 0; r < ix.rows; r++ {
			if r < len(removedAt) && removedAt[r] {
				continue
			}
			c.firstIDs[w] = -1
			var vs []string
			if r < len(old.rowVals) {
				vs = old.rowVals[r]
			}
			if len(vs) > 0 {
				c.bits[w>>6] |= 1 << (w & 63)
				c.rowVals[w] = vs
				c.firstIDs[w] = old.firstIDs[r]
				c.present++
				c.instances += len(vs)
			}
			w++
		}
		if c.present == old.present {
			c.dict, c.counts, c.entropy = old.dict, old.counts, old.entropy
		} else {
			b.column(c)
		}
		nix.cols[name] = c
	}
	b.finish()
	return nix
}
