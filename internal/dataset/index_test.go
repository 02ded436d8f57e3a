package dataset

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/conftypes"
	"repro/internal/stats"
)

// indexFixture builds a small table with presence gaps and a
// multi-instance column.
func indexFixture() *Dataset {
	d := New()
	d.DeclareAttr("path", conftypes.TypeFilePath, false)
	d.DeclareAttr("user", conftypes.TypeUserName, false)
	d.DeclareAttr("module", conftypes.TypeString, false)
	r1 := d.NewRow("img-1")
	d.Add(r1, "path", "/var/a")
	d.Add(r1, "user", "alice")
	d.Add(r1, "module", "mod_a")
	d.Add(r1, "module", "mod_b")
	r2 := d.NewRow("img-2")
	d.Add(r2, "path", "/var/b")
	r3 := d.NewRow("img-3")
	d.Add(r3, "user", "bob")
	d.Add(r3, "module", "mod_a")
	return d
}

func TestIndexPresenceBitsAndCounts(t *testing.T) {
	d := indexFixture()
	ix := d.Index()
	if ix.Rows() != 3 {
		t.Fatalf("rows = %d", ix.Rows())
	}
	if got := ix.PresenceBits("path"); len(got) != 1 || got[0] != 0b011 {
		t.Fatalf("path bits = %b", got)
	}
	if got := ix.PresenceBits("user"); got[0] != 0b101 {
		t.Fatalf("user bits = %b", got)
	}
	if ix.Present("path") != 2 || ix.Present("user") != 2 || ix.Present("module") != 2 {
		t.Fatal("present counts wrong")
	}
	if ix.Instances("module") != 3 {
		t.Fatalf("module instances = %d", ix.Instances("module"))
	}
	// CoSupport = popcount of the AND: path∧user share only row 0.
	if ix.CoSupport("path", "user") != 1 {
		t.Fatalf("CoSupport(path,user) = %d", ix.CoSupport("path", "user"))
	}
	if ix.CoSupport("user", "module") != 2 {
		t.Fatalf("CoSupport(user,module) = %d", ix.CoSupport("user", "module"))
	}
	// Unknown attributes behave like an all-absent column.
	if ix.CoSupport("path", "ghost") != 0 || ix.Present("ghost") != 0 || ix.Entropy("ghost") != 0 {
		t.Fatal("unknown attribute should be all-absent")
	}
	if vs := ix.RowValues("module"); len(vs) != 3 || len(vs[0]) != 2 || vs[1] != nil || vs[2][0] != "mod_a" {
		t.Fatalf("RowValues(module) = %v", vs)
	}
}

// TestIndexCacheInvalidation walks the declare → add → read → add → read
// sequence the memo cache must survive.
func TestIndexCacheInvalidation(t *testing.T) {
	d := New()
	d.DeclareAttr("attr", conftypes.TypeString, false)
	r := d.NewRow("img-1")
	if d.Present("attr") != 0 || d.Cardinality("attr") != 0 {
		t.Fatal("declared-but-empty column should read as absent")
	}
	d.Add(r, "attr", "x")
	if d.Present("attr") != 1 || d.Cardinality("attr") != 1 {
		t.Fatal("first add not visible after cached read")
	}
	d.Add(r, "attr", "y")
	if d.Cardinality("attr") != 2 || d.Index().Instances("attr") != 2 {
		t.Fatal("second add not visible: cache is stale")
	}
	// A new row invalidates too (bitset length grows).
	r2 := d.NewRow("img-2")
	if d.Index().Rows() != 2 {
		t.Fatal("new row not visible in index")
	}
	d.Add(r2, "attr", "x")
	if d.Present("attr") != 2 {
		t.Fatal("add on new row not visible")
	}
	// Declaring a fresh column after reads must show up as well.
	d.DeclareAttr("late", conftypes.TypeString, false)
	d.Add(r2, "late", "v")
	if d.Present("late") != 1 {
		t.Fatal("late-declared column not indexed")
	}
}

// TestStaleEntropyRegression pins the cache-invalidation contract for the
// statistic the rule engine's filter depends on: entropy read after a
// mutation must reflect the new distribution, not the memoized one.
func TestStaleEntropyRegression(t *testing.T) {
	d := New()
	d.DeclareAttr("attr", conftypes.TypeString, false)
	for i := 0; i < 4; i++ {
		d.Add(d.NewRow(fmt.Sprintf("img-%d", i)), "attr", "same")
	}
	if d.Entropy("attr") != 0 {
		t.Fatalf("constant column entropy = %v", d.Entropy("attr"))
	}
	// Diversify the distribution; entropy must rise on the next read.
	d.Add(d.NewRow("img-odd"), "attr", "different")
	want := stats.EntropyOfValues(d.Column("attr"))
	if got := d.Entropy("attr"); math.Abs(got-want) > 1e-12 || got == 0 {
		t.Fatalf("stale entropy after mutation: got %v want %v", got, want)
	}
}

// TestIndexMatchesNaive cross-checks every memoized statistic against a
// direct recomputation on randomized tables.
func TestIndexMatchesNaive(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d := New()
		nAttrs := 3 + rng.Intn(6)
		attrs := make([]string, nAttrs)
		for i := range attrs {
			attrs[i] = fmt.Sprintf("a%d", i)
			d.DeclareAttr(attrs[i], conftypes.TypeString, false)
		}
		nRows := 1 + rng.Intn(130) // spans multiple bitset words
		for r := 0; r < nRows; r++ {
			row := d.NewRow(fmt.Sprintf("img-%d", r))
			for _, a := range attrs {
				for k := rng.Intn(3); k > 0; k-- {
					d.Add(row, a, fmt.Sprintf("v%d", rng.Intn(4)))
				}
			}
		}
		ix := d.Index()
		for _, a := range attrs {
			present, instances := 0, 0
			var col []string
			for _, row := range d.Rows() {
				vs := row.Instances(a)
				if len(vs) > 0 {
					present++
				}
				instances += len(vs)
				col = append(col, vs...)
			}
			if ix.Present(a) != present || ix.Instances(a) != instances {
				t.Fatalf("seed %d attr %s: present/instances mismatch", seed, a)
			}
			if ix.Cardinality(a) != stats.Cardinality(col) {
				t.Fatalf("seed %d attr %s: cardinality mismatch", seed, a)
			}
			if math.Abs(ix.Entropy(a)-stats.EntropyOfValues(col)) > 1e-12 {
				t.Fatalf("seed %d attr %s: entropy %v vs %v", seed, a, ix.Entropy(a), stats.EntropyOfValues(col))
			}
			// The dictionary is the column's distinct values in first-
			// appearance order, and each row's ID names its first value.
			var order []string
			for _, v := range col {
				if !slices.Contains(order, v) {
					order = append(order, v)
				}
			}
			values, counts := ix.Dict(a)
			if !slices.Equal(values, order) {
				t.Fatalf("seed %d attr %s: Dict values %q, want %q", seed, a, values, order)
			}
			hist := stats.Histogram(col)
			for i, v := range values {
				if counts[i] != hist[v] {
					t.Fatalf("seed %d attr %s: Dict count of %q = %d, want %d", seed, a, v, counts[i], hist[v])
				}
			}
			if got := ix.Histogram(a); !reflect.DeepEqual(got, hist) {
				t.Fatalf("seed %d attr %s: Histogram %v, want %v", seed, a, got, hist)
			}
			for r, row := range d.Rows() {
				id := ix.FirstIDs(a)[r]
				if vs := row.Instances(a); len(vs) == 0 && id != -1 || len(vs) > 0 && (id < 0 || values[id] != vs[0]) {
					t.Fatalf("seed %d attr %s: FirstIDs[%d] = %d for row %v", seed, a, r, id, vs)
				}
			}
			gotCol := d.Column(a)
			if len(gotCol) != len(col) {
				t.Fatalf("seed %d attr %s: column length %d vs %d", seed, a, len(gotCol), len(col))
			}
			for i := range col {
				if gotCol[i] != col[i] {
					t.Fatalf("seed %d attr %s: column order diverges at %d", seed, a, i)
				}
			}
		}
		for i := 0; i < len(attrs); i++ {
			for j := i + 1; j < len(attrs); j++ {
				naive := 0
				for _, row := range d.Rows() {
					if len(row.Instances(attrs[i])) > 0 && len(row.Instances(attrs[j])) > 0 {
						naive++
					}
				}
				if ix.CoSupport(attrs[i], attrs[j]) != naive {
					t.Fatalf("seed %d: CoSupport(%s,%s) = %d want %d",
						seed, attrs[i], attrs[j], ix.CoSupport(attrs[i], attrs[j]), naive)
				}
			}
		}
	}
}

// TestColumnPreallocation verifies Column sizes its slice from the cached
// instance count instead of growing by repeated append.
func TestColumnPreallocation(t *testing.T) {
	d := indexFixture()
	col := d.Column("module")
	if len(col) != 3 || cap(col) != 3 {
		t.Fatalf("Column(module): len %d cap %d, want exactly 3", len(col), cap(col))
	}
	if d.Column("ghost") != nil {
		t.Fatal("unknown column should be nil")
	}
}

// TestIndexConcurrentReaders exercises the lazy rebuild under concurrent
// access (meaningful under -race in tier 2).
func TestIndexConcurrentReaders(t *testing.T) {
	d := indexFixture()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if d.Entropy("module") < 0 || d.Index().CoSupport("path", "user") != 1 {
					t.Error("index read inconsistent under concurrency")
				}
			}
		}()
	}
	wg.Wait()
}
