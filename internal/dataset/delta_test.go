package dataset

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/conftypes"
)

// freshOracle rebuilds an equivalent dataset from scratch — same attribute
// declarations in the same order, same rows — so its lazily built index is
// the from-scratch reference for a delta-maintained one.
func freshOracle(d *Dataset) *Dataset {
	o := New()
	for _, a := range d.Attributes() {
		o.DeclareAttr(a.Name, a.Type, a.Augmented)
	}
	o.AddRows(d.Rows...)
	return o
}

// requireIndexEqual compares two columnar snapshots attribute by attribute
// — presence, instance counts, exact float entropy, cardinality, bit-level
// co-support, the per-row value columns, and the value dictionaries:
// values in order, counts, first-value IDs and histograms. Delta snapshots
// may carry shorter bitsets, row columns and ID columns for untouched
// columns; equality is on the semantics, not the physical length.
func requireIndexEqual(t *testing.T, step string, got, want *Index, attrs []Attribute) {
	t.Helper()
	if got.Rows() != want.Rows() {
		t.Fatalf("%s: rows = %d, want %d", step, got.Rows(), want.Rows())
	}
	for _, a := range attrs {
		if g, w := got.Present(a.Name), want.Present(a.Name); g != w {
			t.Fatalf("%s: Present(%s) = %d, want %d", step, a.Name, g, w)
		}
		if g, w := got.Instances(a.Name), want.Instances(a.Name); g != w {
			t.Fatalf("%s: Instances(%s) = %d, want %d", step, a.Name, g, w)
		}
		if g, w := got.Entropy(a.Name), want.Entropy(a.Name); g != w {
			t.Fatalf("%s: Entropy(%s) = %v, want %v (floats must match exactly)", step, a.Name, g, w)
		}
		if g, w := got.Cardinality(a.Name), want.Cardinality(a.Name); g != w {
			t.Fatalf("%s: Cardinality(%s) = %d, want %d", step, a.Name, g, w)
		}
		gv, wv := got.RowValues(a.Name), want.RowValues(a.Name)
		for r := 0; r < want.Rows(); r++ {
			var gRow, wRow []string
			if r < len(gv) {
				gRow = gv[r]
			}
			if r < len(wv) {
				wRow = wv[r]
			}
			if len(gRow) != len(wRow) {
				t.Fatalf("%s: RowValues(%s)[%d] lengths differ: %v vs %v", step, a.Name, r, gRow, wRow)
			}
			for k := range gRow {
				if gRow[k] != wRow[k] {
					t.Fatalf("%s: RowValues(%s)[%d][%d] = %q, want %q", step, a.Name, r, k, gRow[k], wRow[k])
				}
			}
		}
		gVals, gCounts := got.Dict(a.Name)
		wVals, wCounts := want.Dict(a.Name)
		if !slices.Equal(gVals, wVals) || !slices.Equal(gCounts, wCounts) {
			t.Fatalf("%s: Dict(%s) = %q %v, want %q %v", step, a.Name, gVals, gCounts, wVals, wCounts)
		}
		gIDs, wIDs := got.FirstIDs(a.Name), want.FirstIDs(a.Name)
		for r := 0; r < want.Rows(); r++ {
			g, w := int32(-1), int32(-1)
			if r < len(gIDs) {
				g = gIDs[r]
			}
			if r < len(wIDs) {
				w = wIDs[r]
			}
			if g != w {
				t.Fatalf("%s: FirstIDs(%s)[%d] = %d, want %d", step, a.Name, r, g, w)
			}
		}
		if g, w := got.Histogram(a.Name), want.Histogram(a.Name); !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: Histogram(%s) = %v, want %v", step, a.Name, g, w)
		}
	}
	for _, a := range attrs {
		for _, b := range attrs {
			if g, w := got.CoSupport(a.Name, b.Name), want.CoSupport(a.Name, b.Name); g != w {
				t.Fatalf("%s: CoSupport(%s, %s) = %d, want %d", step, a.Name, b.Name, g, w)
			}
		}
	}
}

// randomRow builds a row drawing attributes and values from small pools so
// columns overlap across rows (co-support > 0) and histograms repeat
// values (entropy exercises the memo path).
func randomRow(rng *rand.Rand, id string, attrPool []string) *Row {
	src := New()
	row := src.NewRow(id)
	for _, attr := range attrPool {
		if rng.Intn(3) == 0 {
			continue // absent on this system
		}
		n := 1 + rng.Intn(2)
		for k := 0; k < n; k++ {
			src.Add(row, attr, fmt.Sprintf("v%d", rng.Intn(4)))
		}
	}
	return row
}

// detachedRow builds a row holding cells in a scratch dataset of its own,
// the way the assembler hands delta rows to AddRows.
func detachedRow(id string, cells map[string][]string) *Row {
	src := New()
	row := src.NewRow(id)
	for attr, vs := range cells {
		for _, v := range vs {
			src.Add(row, attr, v)
		}
	}
	return row
}

// firstOccurrenceRow returns the ID of the first row holding attr whose
// first value also appears in a later row — retiring it moves that value
// behind others in the dictionary — or "" if there is none.
func firstOccurrenceRow(d *Dataset, attr string) string {
	for i, row := range d.Rows {
		vs := row.Instances(attr)
		if len(vs) == 0 {
			continue
		}
		for _, later := range d.Rows[i+1:] {
			if slices.Contains(later.Instances(attr), vs[0]) {
				return row.SystemID
			}
		}
		return ""
	}
	return ""
}

// TestDeltaIndexMatchesRebuild drives a randomized add/retire sequence and
// checks after every mutation that the delta-maintained index is
// indistinguishable from one built from scratch over the same rows,
// value dictionaries included.
func TestDeltaIndexMatchesRebuild(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			attrPool := []string{"app:a", "app:b", "app:c", "app:d", "app:e"}
			d := New()
			next := 0
			newRows := func(n int) []*Row {
				rows := make([]*Row, n)
				for i := range rows {
					rows[i] = randomRow(rng, fmt.Sprintf("sys-%d", next), attrPool)
					next++
				}
				return rows
			}

			d.AddRows(newRows(6)...)
			// Materialize the snapshot so subsequent mutations maintain it
			// by delta rather than rebuilding lazily.
			d.Index()

			reordered := 0
			for step := 0; step < 30; step++ {
				label := fmt.Sprintf("step %d", step)
				switch rng.Intn(4) {
				case 0: // add a batch
					d.AddRows(newRows(1 + rng.Intn(3))...)
				case 1: // retire a random subset
					if len(d.Rows) > 2 {
						var ids []string
						for _, row := range d.Rows {
							if rng.Intn(4) == 0 {
								ids = append(ids, row.SystemID)
							}
						}
						ids = append(ids, "no-such-system")
						d.RetireRows(ids...)
					}
				case 2: // add-then-retire leaving the row count unchanged
					batch := newRows(2)
					d.AddRows(batch...)
					d.RetireRows(d.Rows[0].SystemID, d.Rows[1].SystemID)
				case 3: // retire a value's first occurrence while later rows keep it
					attr := attrPool[rng.Intn(len(attrPool))]
					id := firstOccurrenceRow(d, attr)
					if id == "" {
						d.AddRows(newRows(2)...)
						break
					}
					before, _ := d.Index().Dict(attr)
					d.RetireRows(id)
					after, _ := d.Index().Dict(attr)
					if !slices.Equal(before, after) {
						reordered++
					}
				}
				if d.idx.Load() == nil {
					t.Fatalf("%s: mutation dropped the cached index instead of maintaining it", label)
				}
				requireIndexEqual(t, label, d.Index(), freshOracle(d).Index(), d.Attributes())
			}
			if reordered == 0 {
				t.Fatal("no retirement moved a value within its dictionary")
			}
		})
	}
}

// TestRetireFirstOccurrenceMovesValue pins the retire rule on a column
// small enough to read: retiring the row that holds a value's first
// occurrence, while a later row still holds it, moves the value behind
// the values first seen in between.
func TestRetireFirstOccurrenceMovesValue(t *testing.T) {
	d := New()
	for i, v := range []string{"a", "b", "c", "a"} {
		d.AddRows(detachedRow(fmt.Sprintf("s%d", i), map[string][]string{"app:x": {v}}))
	}
	d.Index()
	d.RetireRows("s0")
	values, counts := d.Index().Dict("app:x")
	if !slices.Equal(values, []string{"b", "c", "a"}) || !slices.Equal(counts, []int{1, 1, 1}) {
		t.Fatalf("Dict after retiring the first occurrence = %q %v, want [b c a] [1 1 1]", values, counts)
	}
	if ids := d.Index().FirstIDs("app:x"); !slices.Equal(ids, []int32{0, 1, 2}) {
		t.Fatalf("FirstIDs = %v, want [0 1 2]", ids)
	}
	requireIndexEqual(t, "retire s0", d.Index(), freshOracle(d).Index(), d.Attributes())
}

// TestAddRowsDeclaresNewAttrs locks the declaration semantics: attributes
// first seen in an added batch are declared sorted by name with type
// String (exactly as Add would), and existing declarations are untouched.
func TestAddRowsDeclaresNewAttrs(t *testing.T) {
	d := New()
	d.DeclareAttr("app:known", conftypes.TypeFilePath, false)
	d.Index() // cache a snapshot before the columns exist in it
	d.AddRows(
		detachedRow("s1", map[string][]string{
			"app:zeta": {"1"}, "app:alpha": {"2"}, "app:known": {"/x"},
		}),
	)
	attrs := d.Attributes()
	if len(attrs) != 3 {
		t.Fatalf("attrs = %d, want 3", len(attrs))
	}
	if attrs[0].Name != "app:known" || attrs[0].Type != conftypes.TypeFilePath {
		t.Fatalf("existing declaration disturbed: %+v", attrs[0])
	}
	if attrs[1].Name != "app:alpha" || attrs[2].Name != "app:zeta" {
		t.Fatalf("new attrs not declared in sorted order: %v, %v", attrs[1].Name, attrs[2].Name)
	}
	if attrs[1].Type != conftypes.TypeString {
		t.Fatalf("new attr type = %v, want String", attrs[1].Type)
	}
	if d.Present("app:known") != 1 || d.Present("app:zeta") != 1 {
		t.Fatal("delta index missed cells of the added row")
	}
}

// TestRetireRowsReturnsRemoved locks RetireRows' contract: removed rows
// come back in original order, unknown IDs are ignored, and surviving row
// order is preserved.
func TestRetireRowsReturnsRemoved(t *testing.T) {
	d := New()
	for i := 0; i < 5; i++ {
		r := d.NewRow(fmt.Sprintf("s%d", i))
		d.Add(r, "app:x", fmt.Sprintf("v%d", i))
	}
	removed := d.RetireRows("s3", "s1", "nope")
	if len(removed) != 2 || removed[0].SystemID != "s1" || removed[1].SystemID != "s3" {
		t.Fatalf("removed = %v", removed)
	}
	var left []string
	for _, r := range d.Rows {
		left = append(left, r.SystemID)
	}
	if fmt.Sprint(left) != "[s0 s2 s4]" {
		t.Fatalf("surviving rows = %v", left)
	}
	if d.RetireRows("s1") != nil {
		t.Fatal("retiring an already-retired ID should remove nothing")
	}
}

// TestDeltaSharesUntouchedColumns pins the copy-on-write property the
// whole delta path is built around: a column absent from every added row
// keeps its exact *colStats pointer in the new snapshot.
func TestDeltaSharesUntouchedColumns(t *testing.T) {
	d := New()
	r1 := d.NewRow("s1")
	d.Add(r1, "app:x", "1")
	d.Add(r1, "app:y", "2")
	old := d.Index()
	d.AddRows(detachedRow("s2", map[string][]string{"app:x": {"3"}}))
	nix := d.Index()
	if nix == old {
		t.Fatal("AddRows did not produce a new snapshot")
	}
	if nix.cols["app:y"] != old.cols["app:y"] {
		t.Fatal("untouched column was copied instead of shared")
	}
	if nix.cols["app:x"] == old.cols["app:x"] {
		t.Fatal("touched column was shared instead of copied")
	}
	if old.Present("app:x") != 1 || nix.Present("app:x") != 2 {
		t.Fatal("old snapshot mutated or new snapshot wrong")
	}
}
