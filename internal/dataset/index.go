// Columnar index: a per-attribute snapshot of the dataset with presence
// bitsets, value dictionaries and memoized statistics.
//
// The dataset stores each attribute as a column of per-row instance
// slices, and the rule engine asks column questions — "in how many
// systems do A and B co-occur?", "what is the entropy of A?" — thousands
// of times per run. The Index finishes each column once so it answers
// those in O(rows/64) and O(1) respectively:
//
//   - each attribute gets a presence bitset ([]uint64, one bit per row), so
//     candidate support is popcount(bitsA AND bitsB);
//   - the snapshot shares the dataset's columns of per-row instance
//     slices, so validation sweeps index a slice;
//   - each attribute gets a value dictionary: its distinct values in
//     first-appearance order (row order, then instance order), each value's
//     instance count, and every row's first-value ID. A training column
//     holds few distinct values, so whoever interprets values (the rule
//     engine's value-only templates) does so once per dictionary entry, and
//     histograms come from the counts without recounting the column;
//   - entropy, cardinality, presence, and total instance counts are
//     computed once per snapshot and served from the cache. Entropy is
//     summed over the dictionary counts in dictionary order, so it is the
//     same float on every run.
//
// Finishing a column walks its instance slices only. The snapshot is
// invalidated (not updated in place) by the row mutators NewRow, Add and
// Set, and lazily rebuilt on the next access; DeclareAttr keeps it (a
// cell-less column is indistinguishable from an unknown one), and the
// batch mutators AddRows/RetireRows replace it with a copy-on-write delta
// snapshot (see delta.go) instead of discarding it. A caller must not
// retain an *Index across mutations; re-fetch it with Dataset.Index
// instead. Snapshot access is safe for concurrent readers (the scan
// engine's workers and the rule engine's candidate pool both read it in
// parallel).
package dataset

import (
	"math"
	"math/bits"
)

// colStats is the columnar view of one attribute.
type colStats struct {
	// bits is the presence bitset: bit r is set iff Rows[r] has at least
	// one instance of the attribute.
	bits []uint64
	// rowVals is the dataset's column: each row's instance slice (nil for
	// absent rows), ending at the last row holding the attribute.
	rowVals [][]string
	// dict holds the distinct instance values in first-appearance order
	// (row order, then instance order) and counts each one's instances.
	dict   []string
	counts []int
	// firstIDs holds each row's first value as an index into dict, -1 for
	// absent rows.
	firstIDs []int32
	// present is popcount(bits): the number of rows with the attribute.
	present int
	// instances is the total instance count across all rows.
	instances int
	// entropy is the Shannon entropy of the value distribution.
	entropy float64
}

// Index is an immutable columnar snapshot of a dataset. Obtain one with
// Dataset.Index; all methods are safe for concurrent use.
type Index struct {
	rows int
	cols map[string]*colStats
}

// emptyCol is returned for attributes the snapshot does not know, so
// lookups on undeclared names behave like an all-absent column.
var emptyCol = &colStats{}

func (ix *Index) col(attr string) *colStats {
	if c, ok := ix.cols[attr]; ok {
		return c
	}
	return emptyCol
}

// Rows returns the number of rows the snapshot covers.
func (ix *Index) Rows() int { return ix.rows }

// Present returns the number of rows in which the attribute appears.
func (ix *Index) Present(attr string) int { return ix.col(attr).present }

// Instances returns the total instance count of the attribute.
func (ix *Index) Instances(attr string) int { return ix.col(attr).instances }

// Entropy returns the memoized Shannon entropy of the attribute's value
// distribution.
func (ix *Index) Entropy(attr string) float64 { return ix.col(attr).entropy }

// Cardinality returns the number of distinct instance values: the size of
// the attribute's dictionary.
func (ix *Index) Cardinality(attr string) int { return len(ix.col(attr).dict) }

// PresenceBits returns the attribute's presence bitset (bit r set iff row
// r has the attribute). The returned slice is shared and must be treated
// as read-only; it is nil for unknown attributes.
func (ix *Index) PresenceBits(attr string) []uint64 { return ix.col(attr).bits }

// RowValues returns the attribute's column: one instance slice per row
// (nil for rows where the attribute is absent), ending at the last row
// that holds the attribute. Shared storage — read only. It is nil for
// unknown attributes.
func (ix *Index) RowValues(attr string) [][]string { return ix.col(attr).rowVals }

// Dict returns the attribute's value dictionary: its distinct values in
// first-appearance order and each value's instance count. Shared storage
// — read only. Both are empty for unknown or empty attributes.
func (ix *Index) Dict(attr string) (values []string, counts []int) {
	c := ix.col(attr)
	return c.dict, c.counts
}

// FirstIDs returns, for each row, the dictionary index of the row's first
// value of the attribute, or -1 where the attribute is absent. Shared
// storage — read only. A delta snapshot may return fewer entries than
// Rows(); the missing rows are absent.
func (ix *Index) FirstIDs(attr string) []int32 { return ix.col(attr).firstIDs }

// Histogram returns the attribute's value histogram (value → instance
// count), read off the dictionary. The map is the caller's; it is empty,
// not nil, for an attribute with no values.
func (ix *Index) Histogram(attr string) map[string]int {
	c := ix.col(attr)
	h := make(map[string]int, len(c.dict))
	for i, v := range c.dict {
		h[v] = c.counts[i]
	}
	return h
}

// CoSupport returns the number of rows in which both attributes appear:
// popcount(bitsA AND bitsB), O(rows/64).
func (ix *Index) CoSupport(attrA, attrB string) int {
	ba, bb := ix.col(attrA).bits, ix.col(attrB).bits
	// Delta snapshots (see delta.go) share untouched columns whose bitsets
	// still have the pre-delta length; the missing high words are implicit
	// zeros, so the sweep stops at the shorter set.
	if len(bb) < len(ba) {
		ba = ba[:len(bb)]
	}
	n := 0
	for i, w := range ba {
		n += bits.OnesCount64(w & bb[i])
	}
	return n
}

// buildIndex finishes every column of the dataset into a snapshot. The
// columns, their bitsets and their first-value IDs are cut from one
// allocation each. A delta snapshot that shares one of these columns
// keeps the whole snapshot reachable; delta columns are allocated one by
// one, so at most one full snapshot is held beyond the current one. After
// a retirement, prev is the snapshot before it and from holds each
// remaining row's old position, and only the columns that lost cells pay
// the dictionary rebuild (see carry).
func buildIndex(d *Dataset, prev *Index, from []int) *Index {
	rows := len(d.Rows)
	words := (rows + 63) / 64
	ix := &Index{rows: rows, cols: make(map[string]*colStats, len(d.attrs))}
	cols := make([]colStats, len(d.attrs))
	bitSlab := make([]uint64, len(d.attrs)*words)
	idSlab := make([]int32, len(d.attrs)*rows)
	var b dictBuilder
	for i, a := range d.attrs {
		c := &cols[i]
		c.bits = bitSlab[i*words : (i+1)*words : (i+1)*words]
		c.firstIDs = idSlab[i*rows : (i+1)*rows : (i+1)*rows]
		c.rowVals = d.tab.cols[i].vals
		ix.cols[a.Name] = c
		if prev != nil && c.carry(prev.col(a.Name), from) {
			continue
		}
		b.begin()
		b.fill(c, 0)
		b.end(c)
	}
	b.finish()
	return ix
}

// carry gives c the dictionary and statistics of old, its column before
// a retirement, moving each row's first-value ID from its old position in
// from. A column that lost cells cannot keep them: carry then leaves c's
// bits clear and reports false.
func (c *colStats) carry(old *colStats, from []int) bool {
	present := 0
	for r, o := range from {
		c.firstIDs[r] = -1
		if o < len(old.firstIDs) && old.firstIDs[o] >= 0 {
			c.firstIDs[r] = old.firstIDs[o]
			c.bits[r>>6] |= 1 << (r & 63)
			present++
		}
	}
	if present != old.present {
		clear(c.bits)
		return false
	}
	c.present, c.instances, c.dict, c.counts, c.entropy = old.present, old.instances, old.dict, old.counts, old.entropy
	return true
}

// dictBuilder builds the value dictionaries of a snapshot's columns, one
// column at a time. Every column's entries are appended to one shared
// slab and cut from it by finish, so a snapshot's dictionaries cost a few
// allocations rather than two per column.
type dictBuilder struct {
	values []string
	counts []int
	// start is where the current column's entries begin in the slab.
	start int
	// ids maps each value of the current column to its ID.
	ids  map[string]int32
	cols []builtDict
}

// builtDict records where a column's dictionary lies in the slab until
// finish cuts it out.
type builtDict struct {
	c      *colStats
	lo, hi int
}

// fill indexes the rows of c.firstIDs from onwards into c and the
// current dictionary: presence bits, counts, first-value IDs and
// dictionary entries. c.bits must cover c.firstIDs.
func (b *dictBuilder) fill(c *colStats, from int) {
	for r := from; r < len(c.firstIDs); r++ {
		if r >= len(c.rowVals) || len(c.rowVals[r]) == 0 {
			c.firstIDs[r] = -1
			continue
		}
		vs := c.rowVals[r]
		c.bits[r>>6] |= 1 << (r & 63)
		c.present++
		c.instances += len(vs)
		c.firstIDs[r] = b.add(vs[0])
		for _, v := range vs[1:] {
			b.add(v)
		}
	}
}

// begin starts a new column.
func (b *dictBuilder) begin() {
	b.start = len(b.values)
	if b.ids == nil {
		b.ids = make(map[string]int32)
	}
	clear(b.ids)
}

// seed appends an existing dictionary to the current column in order:
// the delta path extends a column's dictionary copy-on-write.
func (b *dictBuilder) seed(values []string, counts []int) {
	for i, v := range values {
		b.ids[v] = int32(i)
	}
	b.values = append(b.values, values...)
	b.counts = append(b.counts, counts...)
}

// add counts one instance of v in the current column and returns v's
// dictionary ID, appending v if it is new.
func (b *dictBuilder) add(v string) int32 {
	if id, ok := b.ids[v]; ok {
		b.counts[b.start+int(id)]++
		return id
	}
	id := int32(len(b.values) - b.start)
	b.ids[v] = id
	b.values = append(b.values, v)
	b.counts = append(b.counts, 1)
	return id
}

// end closes the current column: its entropy is summed over the counts
// in dictionary order, and the slab range is recorded for finish.
func (b *dictBuilder) end(c *colStats) {
	c.entropy = entropyOf(b.counts[b.start:], c.instances)
	b.cols = append(b.cols, builtDict{c: c, lo: b.start, hi: len(b.values)})
}

// finish hands every built column its dictionary, cut from the final slab
// (appends may have moved it while later columns were built).
func (b *dictBuilder) finish() {
	for _, bd := range b.cols {
		bd.c.dict = b.values[bd.lo:bd.hi:bd.hi]
		bd.c.counts = b.counts[bd.lo:bd.hi:bd.hi]
	}
}

// entropyOf computes the Shannon entropy (natural log) of a column from
// its dictionary counts. Summing in dictionary (first-appearance) order
// keeps the floating-point result, unlike a sum over Go's randomized map
// iteration, identical on every run.
func entropyOf(counts []int, instances int) float64 {
	if instances == 0 {
		return 0
	}
	h := 0.0
	total := float64(instances)
	for _, n := range counts {
		p := float64(n) / total
		h -= p * math.Log(p)
	}
	return h
}
