// Meaning columns: value-only templates counted from interpretations.
//
// A value-only template (bool-implies, num-lt, size-lt) decides a system
// from the first value on each side alone, read under the template's
// interpretation (templates.Interpretation). A training column holds few
// distinct values, so the engine reads each entry of the column's value
// dictionary (dataset.Index.Dict) once and gives every row its first
// value's meaning. A candidate is then counted from the two meaning
// columns with no interpretation call: bool-implies word-wise from
// "reads as a boolean" and "reads true" bitsets, the comparisons by one
// float or integer compare per applicable row. Validate, which the
// serial oracle runs per row, reads the same interpretation, and the
// equivalence tests hold the two to the same rules and Stats.
package rules

import (
	"math/bits"

	"repro/internal/conftypes"
	"repro/internal/dataset"
	"repro/internal/templates"
)

// meanings is one attribute's column read under one interpretation. ok
// has bit r set iff row r's first value reads under it; truth (AsBool)
// marks the rows that read true, and num (AsNumber) or size (AsSize)
// holds each row's meaning.
type meanings struct {
	ok    []uint64
	truth []uint64
	num   []float64
	size  []int64
}

// meaningKey names one attribute read under one interpretation.
type meaningKey struct {
	attr   string
	interp templates.Interpretation
}

// meaningTable builds and keeps the meaning columns of one inference run
// over one index snapshot. It is not safe for concurrent use: Infer
// resolves every candidate's columns on the goroutine that enumerates
// candidates, before the candidate reaches a worker, and InferDelta
// resolves the few candidates it re-sweeps.
type meaningTable struct {
	ix    *dataset.Index
	words int
	cols  map[meaningKey]*meanings

	// The columns are cut from chunks so a run allocates per chunk, not
	// per column.
	structs []meanings
	words64 []uint64
	floats  []float64
	ints    []int64

	// Per-dictionary scratch: whether each entry reads, and its meaning.
	read  []bool
	bools []bool
	nums  []float64
	sizes []int64
}

func newMeaningTable(ix *dataset.Index) *meaningTable {
	return &meaningTable{ix: ix, words: (ix.Rows() + 63) / 64, cols: make(map[meaningKey]*meanings)}
}

// chunkCols is how many columns' worth of storage one chunk holds.
const chunkCols = 16

// cut returns n zeroed elements carved from *chunk, refilling it with
// chunkCols times n elements when it runs short.
func cut[T any](chunk *[]T, n int) []T {
	if len(*chunk) < n {
		*chunk = make([]T, chunkCols*n)
	}
	s := (*chunk)[:n:n]
	*chunk = (*chunk)[n:]
	return s
}

// columns appends the meaning column of each attribute under interp to
// dst, and appends nothing for a nil table or an uninterpreted template.
func (mt *meaningTable) columns(dst []*meanings, attrs []dataset.Attribute, interp templates.Interpretation) []*meanings {
	if mt == nil || interp == templates.Uninterpreted {
		return dst
	}
	for _, a := range attrs {
		dst = append(dst, mt.column(a.Name, interp))
	}
	return dst
}

// resolve fills in a value-only candidate's meaning columns; other
// candidates are returned unchanged.
func (mt *meaningTable) resolve(c candidate) candidate {
	if c.tpl.Interp != templates.Uninterpreted && c.ma == nil {
		c.ma = mt.column(c.attrA, c.tpl.Interp)
		c.mb = mt.column(c.attrB, c.tpl.Interp)
	}
	return c
}

// column returns the attribute's meaning column under interp, building it
// on first use: each dictionary entry is interpreted once, then every row
// takes its first value's meaning.
func (mt *meaningTable) column(attr string, interp templates.Interpretation) *meanings {
	key := meaningKey{attr: attr, interp: interp}
	if m, ok := mt.cols[key]; ok {
		return m
	}
	values, _ := mt.ix.Dict(attr)
	ids := mt.ix.FirstIDs(attr)
	rows := mt.ix.Rows()
	m := &cut(&mt.structs, 1)[0]
	m.ok = cut(&mt.words64, mt.words)
	mt.read = resize(mt.read, len(values))
	switch interp {
	case templates.AsBool:
		mt.bools = resize(mt.bools, len(values))
		for i, v := range values {
			mt.bools[i], mt.read[i] = conftypes.ParseBool(v)
		}
		m.truth = cut(&mt.words64, mt.words)
		for r, id := range ids {
			if id >= 0 && mt.read[id] {
				m.ok[r>>6] |= 1 << (r & 63)
				if mt.bools[id] {
					m.truth[r>>6] |= 1 << (r & 63)
				}
			}
		}
	case templates.AsNumber:
		mt.nums = resize(mt.nums, len(values))
		for i, v := range values {
			mt.nums[i], mt.read[i] = templates.Number(v)
		}
		m.num = cut(&mt.floats, rows)
		for r, id := range ids {
			if id >= 0 && mt.read[id] {
				m.ok[r>>6] |= 1 << (r & 63)
				m.num[r] = mt.nums[id]
			}
		}
	case templates.AsSize:
		mt.sizes = resize(mt.sizes, len(values))
		for i, v := range values {
			mt.sizes[i], mt.read[i] = conftypes.ParseSize(v)
		}
		m.size = cut(&mt.ints, rows)
		for r, id := range ids {
			if id >= 0 && mt.read[id] {
				m.ok[r>>6] |= 1 << (r & 63)
				m.size[r] = mt.sizes[id]
			}
		}
	}
	mt.cols[key] = m
	return m
}

// resize returns s with length n, reusing its storage when it is large
// enough; the contents are to be overwritten.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// countMeanings counts a value-only candidate from its meaning columns:
// applicable rows are those where both first values read; valid rows are
// those where the template's relation holds between the two meanings.
func countMeanings(interp templates.Interpretation, a, b *meanings) (applicable, valid int) {
	switch interp {
	case templates.AsBool:
		// A implies B: not A, or B.
		for w, ok := range a.ok {
			both := ok & b.ok[w]
			applicable += bits.OnesCount64(both)
			valid += bits.OnesCount64(both & (^a.truth[w] | b.truth[w]))
		}
		return applicable, valid
	case templates.AsNumber:
		return countLess(a.ok, b.ok, a.num, b.num)
	case templates.AsSize:
		return countLess(a.ok, b.ok, a.size, b.size)
	}
	return 0, 0
}

// countLess counts the rows where both sides read and A < B.
func countLess[T float64 | int64](okA, okB []uint64, a, b []T) (applicable, valid int) {
	for w, ok := range okA {
		both := ok & okB[w]
		applicable += bits.OnesCount64(both)
		for both != 0 {
			i := w<<6 + bits.TrailingZeros64(both)
			both &= both - 1
			if a[i] < b[i] {
				valid++
			}
		}
	}
	return applicable, valid
}
