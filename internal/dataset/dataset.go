// Package dataset holds the assembled configuration data: a column-typed
// attribute table with one row per system image.
//
// Columns ("attributes" in the paper's data-mining terminology) cover both
// original configuration entries and the augmented environment attributes
// the assembler attaches. A cell may be absent (the entry is not configured
// on that system) or hold one or more instances (Apache's LoadModule occurs
// many times per file). The table also knows how to discretize itself into
// boolean transactions — the representation association-rule miners need,
// and the step whose attribute blow-up Table 2 quantifies.
package dataset

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync/atomic"

	"repro/internal/conftypes"
)

// Attribute is one column: a named, semantically typed configuration or
// environment attribute.
type Attribute struct {
	Name string
	Type conftypes.Type
	// Augmented marks attributes synthesized from environment data rather
	// than parsed from a configuration file.
	Augmented bool
}

// Row is a view of one system's row: its SystemID and its position in
// the column storage it was made in; the values live in the columns. A
// row RetireRows removes keeps viewing the old storage, so it still
// answers Instances (incremental rule inference subtracts its values).
// The zero Row is an empty row.
type Row struct {
	SystemID string
	pos      int
	t        *table
}

// Instances returns the values of an attribute in this row (nil if
// absent). The slice is shared storage — read only.
func (r *Row) Instances(attr string) []string {
	if r.t != nil {
		if i, ok := r.t.index[attr]; ok && i < len(r.t.cols) {
			return r.t.cols[i].at(r.pos)
		}
	}
	return nil
}

// First returns the first instance of an attribute and whether the
// attribute is present.
func (r *Row) First(attr string) (string, bool) {
	vs := r.Instances(attr)
	if len(vs) == 0 {
		return "", false
	}
	return vs[0], true
}

// Each calls fn for every attribute present in the row, in column
// declaration order, with the row's instances (shared storage — read
// only).
func (r *Row) Each(fn func(attr string, values []string)) {
	for i := 0; r.t != nil && i < len(r.t.cols); i++ {
		if vs := r.t.cols[i].at(r.pos); len(vs) > 0 {
			fn(r.t.cols[i].name, vs)
		}
	}
}

// table is the column storage rows view: one column per declared
// attribute, in declaration order.
type table struct {
	// index maps attribute names to columns. Every storage generation of
	// a dataset shares it; a generation reads a column it lacks as absent.
	index map[string]int
	cols  []column
}

// column holds one attribute's instances, one slice per row (nil where
// the attribute is absent). It ends at the last row that holds the
// attribute; rows past its end are absent.
type column struct {
	name string
	vals [][]string
}

func (c *column) at(r int) []string {
	if r < len(c.vals) {
		return c.vals[r]
	}
	return nil
}

// cell returns row r's instance slice for writing, extending the column
// to r. A column that must grow takes at least capacity rows.
func (c *column) cell(r, capacity int) *[]string {
	if r >= len(c.vals) {
		c.vals = slices.Grow(c.vals, max(capacity, r+1)-len(c.vals))[:r+1]
	}
	return &c.vals[r]
}

// Dataset is the assembled table, stored as columns.
type Dataset struct {
	attrs []Attribute
	// tab holds the columns, parallel to attrs; rows[i] views it at i.
	tab   *table
	rows  []*Row
	spare []Row // where Grow keeps the rows it made room for

	// idx caches the columnar snapshot (see index.go). Mutators store nil;
	// Index rebuilds lazily. Atomic so concurrent readers (scan and rule
	// inference worker pools) never observe a half-built snapshot.
	idx atomic.Pointer[Index]
}

// New returns an empty dataset.
func New() *Dataset {
	return &Dataset{tab: &table{index: make(map[string]int)}}
}

// DeclareAttr registers a column if not already present and returns its
// position in Attributes. Re-declaring with a different type keeps the
// first type (training data wins over later observations).
func (d *Dataset) DeclareAttr(name string, t conftypes.Type, augmented bool) int {
	if i, ok := d.tab.index[name]; ok {
		return i
	}
	i := len(d.attrs)
	d.tab.index[name] = i
	d.attrs = append(d.attrs, Attribute{Name: name, Type: t, Augmented: augmented})
	d.tab.cols = append(d.tab.cols, column{name: name})
	// Declaring a column does not invalidate a cached index: a freshly
	// declared attribute has no cells yet, and Index.col falls back to an
	// all-absent column for names the snapshot does not know. Keeping the
	// snapshot alive is what lets AddRows/RetireRows maintain it by delta.
	return i
}

// Index returns the columnar snapshot of the dataset, rebuilding it if a
// mutation invalidated the cached one. The snapshot must not be retained
// across mutations.
func (d *Dataset) Index() *Index {
	if ix := d.idx.Load(); ix != nil {
		return ix
	}
	ix := buildIndex(d, nil, nil)
	d.idx.Store(ix)
	return ix
}

// SetType overrides the declared type of an attribute (used when entry-level
// inference, which sees all samples, refines the initial guess).
func (d *Dataset) SetType(name string, t conftypes.Type) {
	if i, ok := d.tab.index[name]; ok {
		d.attrs[i].Type = t
	}
}

// Attr returns the attribute definition and whether it exists.
func (d *Dataset) Attr(name string) (Attribute, bool) {
	i, ok := d.tab.index[name]
	if !ok {
		return Attribute{}, false
	}
	return d.attrs[i], true
}

// Attributes returns all columns in declaration order.
func (d *Dataset) Attributes() []Attribute { return d.attrs }

// Rows returns the dataset's rows in order. Each row is a position in
// this dataset's columns, so the slice is read only: add rows with
// NewRow or AddRows and remove them with RetireRows.
func (d *Dataset) Rows() []*Row { return d.rows }

// Grow makes room for n more rows, so appending them allocates neither
// row views nor a larger column.
func (d *Dataset) Grow(n int) {
	d.rows = slices.Grow(d.rows, n)
	if len(d.spare) < n {
		d.spare = make([]Row, n)
	}
}

// NewRow appends and returns an empty row for a system.
func (d *Dataset) NewRow(systemID string) *Row {
	if len(d.spare) == 0 {
		d.Grow(1)
	}
	r := &d.spare[0]
	d.spare = d.spare[1:]
	*r = Row{SystemID: systemID, pos: len(d.rows), t: d.tab}
	d.rows = append(d.rows, r)
	d.invalidate()
	return r
}

// Add records an instance of an attribute in a row of d, declaring the
// column on first use with type String.
func (d *Dataset) Add(r *Row, attr, value string) {
	vs := d.tab.cols[d.DeclareAttr(attr, conftypes.TypeString, false)].cell(r.pos, cap(d.rows))
	*vs = append(*vs, value)
	d.invalidate()
}

// Set makes values, which must not be empty, row r's instances of the
// column at position col. The column keeps the slice itself rather than
// a copy.
func (d *Dataset) Set(r *Row, col int, values []string) {
	*d.tab.cols[col].cell(r.pos, cap(d.rows)) = values[:len(values):len(values)]
	d.invalidate()
}

// invalidate drops the cached snapshot; row building calls it per cell.
func (d *Dataset) invalidate() {
	if d.idx.Load() != nil {
		d.idx.Store(nil)
	}
}

// Column returns every instance value of the attribute across all rows
// (multi-instance attributes like Apache's LoadModule contribute each
// occurrence). The slice is preallocated from the index's cached instance
// count.
func (d *Dataset) Column(attr string) []string {
	ix := d.Index()
	n := ix.Instances(attr)
	if n == 0 {
		return nil
	}
	out := make([]string, 0, n)
	for _, vs := range ix.RowValues(attr) {
		out = append(out, vs...)
	}
	return out
}

// Present counts the rows in which the attribute appears.
func (d *Dataset) Present(attr string) int {
	return d.Index().Present(attr)
}

// Entropy returns the Shannon entropy of the attribute's value
// distribution across all instances (memoized on the columnar index).
func (d *Dataset) Entropy(attr string) float64 {
	return d.Index().Entropy(attr)
}

// Cardinality returns the number of distinct instance values (memoized on
// the columnar index).
func (d *Dataset) Cardinality(attr string) int {
	return d.Index().Cardinality(attr)
}

// Histogram returns the attribute's value histogram (value → instance
// count) from the columnar index's value dictionary.
func (d *Dataset) Histogram(attr string) map[string]int {
	return d.Index().Histogram(attr)
}

// OriginalAttrCount counts attribute occurrences the way mining tools see
// them (Table 2 "Original"): every occurrence of an entry in every row is a
// distinct attribute, so the count is the maximum total instance count over
// rows summed per attribute.
func (d *Dataset) OriginalAttrCount() int { return d.occurrences(false) }

// AugmentedAttrCount counts columns after environment integration
// (Table 2 "Augmented"): original occurrences plus augmented columns.
func (d *Dataset) AugmentedAttrCount() int { return d.occurrences(false) + d.occurrences(true) }

// occurrences sums, over the original or the augmented columns, the most
// instances any one row holds.
func (d *Dataset) occurrences(augmented bool) int {
	total := 0
	for i, a := range d.attrs {
		if a.Augmented != augmented {
			continue
		}
		most := 0
		for _, vs := range d.tab.cols[i].vals {
			most = max(most, len(vs))
		}
		total += most
	}
	return total
}

// Item is a boolean item produced by discretization: attribute == value.
type Item struct {
	Attr  string
	Value string
}

// String renders the item as "attr=value".
func (it Item) String() string { return it.Attr + "=" + it.Value }

// Discretized is the boolean (binomial) form of the dataset: the item
// dictionary plus one transaction (item-id set) per row. This is the input
// representation for Apriori and FP-Growth, and the step that blows up the
// attribute count (Table 2 "Binominal").
type Discretized struct {
	Items        []Item
	Transactions [][]int
}

// BinomialCount returns the number of boolean attributes after
// discretization.
func (disc *Discretized) BinomialCount() int { return len(disc.Items) }

// Discretize converts the dataset (restricted to the given attributes; nil
// means all) into boolean transactions. Every distinct (attribute, value)
// pair becomes an item; every row becomes the set of items it exhibits.
func (d *Dataset) Discretize(attrs []string) *Discretized {
	keep := make(map[string]bool, len(attrs))
	for _, a := range attrs {
		keep[a] = true
	}
	// Items are numbered row by row, attributes in name order, instances
	// in order.
	var cols []*column
	for i := range d.tab.cols {
		if attrs == nil || keep[d.tab.cols[i].name] {
			cols = append(cols, &d.tab.cols[i])
		}
	}
	sort.Slice(cols, func(i, j int) bool { return cols[i].name < cols[j].name })
	ids := make(map[Item]int)
	disc := &Discretized{}
	seen := make(map[int]bool)
	for r := range d.rows {
		var txn []int
		clear(seen)
		for _, c := range cols {
			for _, v := range c.at(r) {
				it := Item{Attr: c.name, Value: v}
				id, ok := ids[it]
				if !ok {
					id = len(disc.Items)
					ids[it] = id
					disc.Items = append(disc.Items, it)
				}
				if !seen[id] {
					seen[id] = true
					txn = append(txn, id)
				}
			}
		}
		sort.Ints(txn)
		disc.Transactions = append(disc.Transactions, txn)
	}
	return disc
}

// CSV renders the dataset in the paper's .csv layout: one column per
// attribute, one row per system, multi-instance cells joined with ';'.
func (d *Dataset) CSV() string {
	var b strings.Builder
	b.WriteString("system")
	for _, a := range d.attrs {
		b.WriteString(",")
		b.WriteString(csvEscape(a.Name))
	}
	b.WriteString("\n")
	for r, row := range d.rows {
		b.WriteString(csvEscape(row.SystemID))
		for i := range d.tab.cols {
			b.WriteString(",")
			b.WriteString(csvEscape(strings.Join(d.tab.cols[i].at(r), ";")))
		}
		b.WriteString("\n")
	}
	return b.String()
}

func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}

// Summary returns a one-line description for logs.
func (d *Dataset) Summary() string {
	return fmt.Sprintf("%d attributes x %d rows", len(d.attrs), len(d.rows))
}
