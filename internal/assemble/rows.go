package assemble

import (
	"repro/internal/conftypes"
	"repro/internal/dataset"
)

// rowSink is the TargetSink behind every dataset the assembler builds:
// it collects the stream of one image at a time into a detached
// dataset.Row. One rowSink serves one worker of one assembly call, so its
// intern table and arenas are never shared, and the arenas live exactly
// as long as the rows carved from them.
//
// Entry attributes are declared on the dataset before any row is built,
// so the sink ignores non-augmented Declares. Every augmented Declare
// stands for a dataset.DeclareAttr followed by a SetType to the same type,
// so of a row's repeated declarations of one name only the first position
// (which fixes column order) and the last type (which the final SetType
// leaves) are observable; a row keeps exactly those, and applyDecls
// replays them in image order.
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
	decls   []augDecl  // this row's augmented declarations, first-declare order

	// vals, rows and declArena are the arenas rows and their declarations
	// are carved from.
	vals      []string
	rows      []dataset.Row
	declArena []augDecl

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
	decl    int32 // index of the name's augDecl in this row
}

// valueAdd is one Add of the current row.
type valueAdd struct {
	slot  int32
	value string
}

// augDecl is one augmented attribute's declarations within a row, with
// the type of the last.
type augDecl struct {
	name string
	typ  conftypes.Type
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
	if n.declSeq != s.seq {
		n.declSeq, n.decl = s.seq, int32(len(s.decls))
		s.decls = append(s.decls, augDecl{name: n.name, typ: t})
		return
	}
	s.decls[n.decl].typ = t
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

// flush turns the values and declarations streamed since the last flush
// into a detached row for systemID, and starts the next row.
func (s *rowSink) flush(systemID string) (*dataset.Row, []augDecl) {
	vals := carve(&s.vals, len(s.adds))
	var off int32
	for _, i := range s.touched {
		n := &s.names[i]
		n.off = off
		off += n.n
	}
	for _, ad := range s.adds {
		n := &s.names[ad.slot]
		vals[n.off] = ad.value
		n.off++
	}
	cells := make(map[string][]string, len(s.touched))
	for _, i := range s.touched {
		n := &s.names[i]
		cells[n.name] = vals[n.off-n.n : n.off : n.off]
	}
	row := &carve(&s.rows, 1)[0]
	*row = dataset.Row{SystemID: systemID, Cells: cells}
	decls := carve(&s.declArena, len(s.decls))
	copy(decls, s.decls)
	s.touched, s.adds, s.decls = s.touched[:0], s.adds[:0], s.decls[:0]
	s.seq++
	return row, decls
}

// applyDecls applies one row's augmented declarations to d: a new column
// is declared augmented, and every column takes the row's last type.
func applyDecls(d *dataset.Dataset, decls []augDecl) {
	for _, dc := range decls {
		d.DeclareAttr(dc.name, dc.typ, true)
		d.SetType(dc.name, dc.typ)
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
