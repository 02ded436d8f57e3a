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

// Row holds the attribute instances observed on one system.
type Row struct {
	SystemID string
	Cells    map[string][]string
}

// Instances returns the values of an attribute in this row (nil if
// absent).
func (r *Row) Instances(attr string) []string { return r.Cells[attr] }

// First returns the first instance of an attribute and whether the
// attribute is present.
func (r *Row) First(attr string) (string, bool) {
	vs := r.Cells[attr]
	if len(vs) == 0 {
		return "", false
	}
	return vs[0], true
}

// Dataset is the assembled table.
type Dataset struct {
	attrs []Attribute
	index map[string]int
	Rows  []*Row

	// idx caches the columnar snapshot (see index.go). Mutators store nil;
	// Index rebuilds lazily. Atomic so concurrent readers (scan and rule
	// inference worker pools) never observe a half-built snapshot.
	idx atomic.Pointer[Index]
}

// New returns an empty dataset.
func New() *Dataset {
	return &Dataset{index: make(map[string]int)}
}

// DeclareAttr registers a column if not already present and returns its
// definition. Re-declaring with a different type keeps the first type
// (training data wins over later observations).
func (d *Dataset) DeclareAttr(name string, t conftypes.Type, augmented bool) Attribute {
	if i, ok := d.index[name]; ok {
		return d.attrs[i]
	}
	a := Attribute{Name: name, Type: t, Augmented: augmented}
	d.index[name] = len(d.attrs)
	d.attrs = append(d.attrs, a)
	// Declaring a column does not invalidate a cached index: a freshly
	// declared attribute has no cells yet, and Index.col falls back to an
	// all-absent column for names the snapshot does not know. Keeping the
	// snapshot alive is what lets AddRows/RetireRows maintain it by delta.
	return a
}

// Index returns the columnar snapshot of the dataset, rebuilding it if a
// mutation invalidated the cached one. The snapshot must not be retained
// across mutations.
func (d *Dataset) Index() *Index {
	if ix := d.idx.Load(); ix != nil {
		return ix
	}
	ix := buildIndex(d)
	d.idx.Store(ix)
	return ix
}

// SetType overrides the declared type of an attribute (used when entry-level
// inference, which sees all samples, refines the initial guess).
func (d *Dataset) SetType(name string, t conftypes.Type) {
	if i, ok := d.index[name]; ok {
		d.attrs[i].Type = t
	}
}

// Attr returns the attribute definition and whether it exists.
func (d *Dataset) Attr(name string) (Attribute, bool) {
	i, ok := d.index[name]
	if !ok {
		return Attribute{}, false
	}
	return d.attrs[i], true
}

// Attributes returns all columns in declaration order.
func (d *Dataset) Attributes() []Attribute { return d.attrs }

// NewRow appends and returns an empty row for a system.
func (d *Dataset) NewRow(systemID string) *Row {
	r := &Row{SystemID: systemID, Cells: make(map[string][]string)}
	d.Rows = append(d.Rows, r)
	d.idx.Store(nil)
	return r
}

// Add records an instance of an attribute in a row, declaring the column on
// first use with type String.
func (d *Dataset) Add(r *Row, attr, value string) {
	d.DeclareAttr(attr, conftypes.TypeString, false)
	r.Cells[attr] = append(r.Cells[attr], value)
	d.idx.Store(nil)
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
func (d *Dataset) OriginalAttrCount() int {
	total := 0
	for _, a := range d.attrs {
		if a.Augmented {
			continue
		}
		max := 0
		for _, r := range d.Rows {
			if n := len(r.Cells[a.Name]); n > max {
				max = n
			}
		}
		total += max
	}
	return total
}

// AugmentedAttrCount counts columns after environment integration
// (Table 2 "Augmented"): original occurrences plus augmented columns.
func (d *Dataset) AugmentedAttrCount() int {
	total := d.OriginalAttrCount()
	for _, a := range d.attrs {
		if !a.Augmented {
			continue
		}
		max := 0
		for _, r := range d.Rows {
			if n := len(r.Cells[a.Name]); n > max {
				max = n
			}
		}
		total += max
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
	if attrs == nil {
		attrs = make([]string, len(d.attrs))
		for i, a := range d.attrs {
			attrs[i] = a.Name
		}
	}
	keep := make(map[string]bool, len(attrs))
	for _, a := range attrs {
		keep[a] = true
	}
	ids := make(map[Item]int)
	disc := &Discretized{}
	for _, r := range d.Rows {
		var txn []int
		seen := make(map[int]bool)
		names := make([]string, 0, len(r.Cells))
		for name := range r.Cells {
			if keep[name] {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		for _, name := range names {
			for _, v := range r.Cells[name] {
				it := Item{Attr: name, Value: v}
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
	for _, r := range d.Rows {
		b.WriteString(csvEscape(r.SystemID))
		for _, a := range d.attrs {
			b.WriteString(",")
			b.WriteString(csvEscape(strings.Join(r.Cells[a.Name], ";")))
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
	return fmt.Sprintf("%d attributes x %d rows", len(d.attrs), len(d.Rows))
}
