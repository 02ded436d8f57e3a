package assemble

import (
	"slices"

	"repro/internal/conftypes"
	"repro/internal/dataset"
)

// rowSink is the TargetSink behind every dataset the assembler builds:
// it collects the stream of one image at a time into a rowRun, the row's
// cells by interned name slot. One rowSink serves one worker of one
// assembly call, so its intern table and arenas are never shared; the
// dataset columns keep the values carved from its arenas.
//
// Entry attributes are declared on the dataset before any row is built,
// so the sink ignores non-augmented Declares. Every augmented Declare
// stands for a dataset.DeclareAttr followed by a SetType to the same type,
// so of a row's repeated declarations of one name only the first position
// (which fixes column order) and the last type are observable. The stream
// follows each augmented Declare with an Add of the same name, so the
// row's first declaration of a column comes with its first touch, and
// its cell keeps the last type; merge replays both in image order.
type rowSink struct {
	// typeOf resolves an entry attribute's type the first time the sink
	// sees the name; the answer is memoized for the sink's lifetime.
	typeOf func(name, value string) conftypes.Type

	// slot and names form the intern table: every name the stream
	// mentions gets a slot holding its string and per-row state.
	slot  map[string]int32
	names []nameSlot
	// last/lastSlot cache the latest resolution: the walk passes
	// InternName's string straight to TypeOf, Declare and Add.
	last     string
	lastSlot int32

	// seq stamps the row being built; a slot whose stamp differs holds no
	// state for this row.
	seq     int32
	touched []int32    // slots with values in this row, first-touch order
	adds    []valueAdd // this row's values in stream order

	// vals and cells are the arenas finished rows are carved from.
	vals  []string
	cells []cell
	// types holds the declared types; typeID t is types[t-1].
	types []conftypes.Type

	// cols and declCols map name slots to the columns of the dataset
	// that takes the rows' cells and of the one that takes their
	// declarations: the column's position plus one, 0 until resolved.
	cols, declCols []int32

	buf []byte // name scratch for the walk
}

// nameSlot is one interned name and its state in the current row.
type nameSlot struct {
	name  string
	typ   conftypes.Type
	typed bool

	addSeq  int32 // row stamp of the values below
	n, off  int32 // values in this row; placement cursor during flush
	declSeq int32 // row stamp of decl
	decl    int32 // typeID of the name's last augmented declaration
}

// valueAdd is one Add of the current row.
type valueAdd struct {
	slot  int32
	value string
}

// cell is one attribute of a finished row: its slot, its number of
// values, and the typeID of its last augmented declaration in the row (0
// if none).
type cell struct{ slot, n, decl int32 }

// rowRun is one finished row of sink s: its cells in first-touch order
// and their values, cell after cell.
type rowRun struct {
	s     *rowSink
	id    string
	cells []cell
	vals  []string
}

func newRowSink(typeOf func(name, value string) conftypes.Type) *rowSink {
	return &rowSink{
		typeOf:   typeOf,
		slot:     make(map[string]int32, 64),
		lastSlot: -1,
		seq:      1,
		buf:      make([]byte, 0, 96),
	}
}

// resolve returns name's slot, interning names it has not seen.
func (s *rowSink) resolve(name string) int32 {
	if s.lastSlot >= 0 && name == s.last {
		return s.lastSlot
	}
	i, ok := s.slot[name]
	if !ok {
		i = s.intern(name)
	}
	s.last, s.lastSlot = s.names[i].name, i
	return i
}

func (s *rowSink) intern(name string) int32 {
	i := int32(len(s.names))
	s.slot[name] = i
	s.names = append(s.names, nameSlot{name: name})
	return i
}

// InternName implements TargetSink.
func (s *rowSink) InternName(name []byte) string {
	i, ok := s.slot[string(name)]
	if !ok {
		i = s.intern(string(name))
	}
	s.last, s.lastSlot = s.names[i].name, i
	return s.last
}

// TypeOf implements TargetSink.
func (s *rowSink) TypeOf(name, value string) conftypes.Type {
	n := &s.names[s.resolve(name)]
	if !n.typed {
		n.typ, n.typed = s.typeOf(n.name, value), true
	}
	return n.typ
}

// Declare implements TargetSink.
func (s *rowSink) Declare(name string, t conftypes.Type, augmented bool) {
	if !augmented {
		return
	}
	n := &s.names[s.resolve(name)]
	n.declSeq, n.decl = s.seq, int32(slices.Index(s.types, t))+1
	if n.decl == 0 {
		s.types = append(s.types, t)
		n.decl = int32(len(s.types))
	}
}

// Add implements TargetSink.
func (s *rowSink) Add(name, value string) {
	i := s.resolve(name)
	n := &s.names[i]
	if n.addSeq != s.seq {
		n.addSeq, n.n = s.seq, 0
		s.touched = append(s.touched, i)
	}
	n.n++
	s.adds = append(s.adds, valueAdd{slot: i, value: value})
}

// flush finishes the values and declarations streamed since the last
// flush as the run of systemID's row, and starts the next row.
func (s *rowSink) flush(systemID string) rowRun {
	run := rowRun{s: s, id: systemID, cells: carve(&s.cells, len(s.touched)), vals: carve(&s.vals, len(s.adds))}
	var off int32
	for k, i := range s.touched {
		n := &s.names[i]
		run.cells[k] = cell{slot: i, n: n.n}
		if n.declSeq == s.seq {
			run.cells[k].decl = n.decl
		}
		n.off = off
		off += n.n
	}
	for _, ad := range s.adds {
		n := &s.names[ad.slot]
		run.vals[n.off] = ad.value
		n.off++
	}
	s.touched, s.adds = s.touched[:0], s.adds[:0]
	s.seq++
	return run
}

// merge appends the runs' rows to dst, which is d or a dataset of
// detached rows for d, in order. A cell's augmented declaration goes to d
// first, as DeclareAttr followed by SetType would. Each sink resolves each
// of its name slots to a column once, so merge hashes no name per row.
func merge(d, dst *dataset.Dataset, runs []rowRun) {
	dst.Grow(len(runs))
	for _, run := range runs {
		s := run.s
		if len(s.cols) < len(s.names) {
			s.cols, s.declCols = make([]int32, len(s.names)), make([]int32, len(s.names))
		}
		row := dst.NewRow(run.id)
		vals := run.vals
		for _, c := range run.cells {
			name := s.names[c.slot].name
			if c.decl != 0 {
				t := s.types[c.decl-1]
				if s.declCols[c.slot] == 0 {
					s.declCols[c.slot] = int32(d.DeclareAttr(name, t, true)) + 1
				}
				if d.Attributes()[s.declCols[c.slot]-1].Type != t {
					d.SetType(name, t)
				}
			}
			if s.cols[c.slot] == 0 {
				s.cols[c.slot] = int32(dst.DeclareAttr(name, conftypes.TypeString, false)) + 1
			}
			dst.Set(row, int(s.cols[c.slot]-1), vals[:c.n])
			vals = vals[c.n:]
		}
	}
}

// Arena chunk bounds, in elements.
const (
	minChunk = 16
	maxChunk = 4096
)

// carve returns n zeroed elements from the spare capacity of *arena,
// starting a fresh chunk when the current one is too small. Chunks are
// never truncated or reused, so a carved slice stays valid for as long
// as anything holds it; its capacity ends at its length, so appending to
// it copies instead of overwriting a neighbour.
func carve[T any](arena *[]T, n int) []T {
	a := *arena
	if cap(a)-len(a) < n {
		a = make([]T, 0, max(min(2*cap(a), maxChunk), minChunk, n))
	}
	*arena = a[:len(a)+n]
	return a[len(a) : len(a)+n : len(a)+n]
}
