package dataset

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/conftypes"
)

func sample() *Dataset {
	d := New()
	d.DeclareAttr("mysqld/datadir", conftypes.TypeFilePath, false)
	d.DeclareAttr("mysqld/user", conftypes.TypeUserName, false)
	d.DeclareAttr("mysqld/datadir.owner", conftypes.TypeUserName, true)
	r1 := d.NewRow("img-1")
	d.Add(r1, "mysqld/datadir", "/var/lib/mysql")
	d.Add(r1, "mysqld/user", "mysql")
	d.Add(r1, "mysqld/datadir.owner", "mysql")
	r2 := d.NewRow("img-2")
	d.Add(r2, "mysqld/datadir", "/data/mysql")
	d.Add(r2, "mysqld/user", "mysql")
	d.Add(r2, "mysqld/datadir.owner", "mysql")
	r3 := d.NewRow("img-3")
	d.Add(r3, "mysqld/user", "mysql")
	return d
}

func TestDeclareAndAttr(t *testing.T) {
	d := sample()
	a, ok := d.Attr("mysqld/datadir")
	if !ok || a.Type != conftypes.TypeFilePath || a.Augmented {
		t.Fatalf("attr = %+v ok=%v", a, ok)
	}
	// Re-declare keeps the first type.
	d.DeclareAttr("mysqld/datadir", conftypes.TypeString, false)
	a, _ = d.Attr("mysqld/datadir")
	if a.Type != conftypes.TypeFilePath {
		t.Fatal("re-declare must not clobber type")
	}
	d.SetType("mysqld/datadir", conftypes.TypeString)
	a, _ = d.Attr("mysqld/datadir")
	if a.Type != conftypes.TypeString {
		t.Fatal("SetType should override")
	}
	if _, ok := d.Attr("missing"); ok {
		t.Fatal("missing attr should report !ok")
	}
}

func TestColumnPresentEntropy(t *testing.T) {
	d := sample()
	col := d.Column("mysqld/datadir")
	if len(col) != 2 {
		t.Fatalf("column = %v", col)
	}
	if d.Present("mysqld/datadir") != 2 || d.Present("mysqld/user") != 3 {
		t.Fatal("present counts wrong")
	}
	if d.Entropy("mysqld/user") != 0 {
		t.Fatal("constant column must have zero entropy")
	}
	if d.Entropy("mysqld/datadir") == 0 {
		t.Fatal("two-valued column must have positive entropy")
	}
	if d.Cardinality("mysqld/datadir") != 2 {
		t.Fatal("cardinality wrong")
	}
}

func TestOccurrenceCounts(t *testing.T) {
	d := New()
	d.DeclareAttr("LoadModule", conftypes.TypeString, false)
	d.DeclareAttr("Listen.local", conftypes.TypeBoolean, true)
	r1 := d.NewRow("a")
	d.Add(r1, "LoadModule", "mod_php")
	d.Add(r1, "LoadModule", "mod_ssl")
	d.Add(r1, "LoadModule", "mod_rewrite")
	d.Add(r1, "Listen.local", "true")
	r2 := d.NewRow("b")
	d.Add(r2, "LoadModule", "mod_php")
	// Original counts per-occurrence: max 3 instances of LoadModule.
	if got := d.OriginalAttrCount(); got != 3 {
		t.Fatalf("original = %d, want 3", got)
	}
	if got := d.AugmentedAttrCount(); got != 4 {
		t.Fatalf("augmented = %d, want 4", got)
	}
}

func TestDiscretize(t *testing.T) {
	d := sample()
	disc := d.Discretize(nil)
	if len(disc.Transactions) != 3 {
		t.Fatalf("transactions = %d", len(disc.Transactions))
	}
	// Distinct items: datadir has 2 values, user 1, owner 1 => 4.
	if disc.BinomialCount() != 4 {
		t.Fatalf("items = %d, want 4", disc.BinomialCount())
	}
	// Binomial expansion always >= number of involved columns.
	if disc.BinomialCount() < len(d.Attributes())-1 {
		t.Fatal("binomial must not shrink below column count")
	}
	// Restricting attributes restricts items.
	only := d.Discretize([]string{"mysqld/user"})
	if only.BinomialCount() != 1 {
		t.Fatalf("restricted items = %d", only.BinomialCount())
	}
	// Transactions are sorted, deduplicated item-id sets.
	for _, txn := range disc.Transactions {
		for i := 1; i < len(txn); i++ {
			if txn[i-1] >= txn[i] {
				t.Fatal("transaction not strictly sorted")
			}
		}
	}
}

func TestDiscretizeDeterministic(t *testing.T) {
	d := sample()
	a := d.Discretize(nil)
	b := d.Discretize(nil)
	if len(a.Items) != len(b.Items) {
		t.Fatal("nondeterministic item count")
	}
	for i := range a.Items {
		if a.Items[i] != b.Items[i] {
			t.Fatalf("item %d differs: %v vs %v", i, a.Items[i], b.Items[i])
		}
	}
}

func TestItemString(t *testing.T) {
	it := Item{Attr: "user", Value: "mysql"}
	if it.String() != "user=mysql" {
		t.Fatalf("item = %q", it.String())
	}
}

func TestCSV(t *testing.T) {
	d := sample()
	csv := d.CSV()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 4 {
		t.Fatalf("csv lines = %d\n%s", len(lines), csv)
	}
	if !strings.HasPrefix(lines[0], "system,") {
		t.Fatalf("header = %q", lines[0])
	}
	if !strings.Contains(lines[1], "/var/lib/mysql") {
		t.Fatalf("row 1 = %q", lines[1])
	}
	// Empty cell for img-3's datadir.
	if !strings.Contains(lines[3], "img-3,,") {
		t.Fatalf("row 3 = %q", lines[3])
	}
}

func TestCSVEscaping(t *testing.T) {
	d := New()
	r := d.NewRow(`sys"1`)
	d.Add(r, "a,b", `va"l`)
	csv := d.CSV()
	if !strings.Contains(csv, `"a,b"`) || !strings.Contains(csv, `"sys""1"`) || !strings.Contains(csv, `"va""l"`) {
		t.Fatalf("escaping wrong:\n%s", csv)
	}
}

func TestMultiInstanceCellsJoined(t *testing.T) {
	d := New()
	r := d.NewRow("s")
	d.Add(r, "LoadModule", "a")
	d.Add(r, "LoadModule", "b")
	if !strings.Contains(d.CSV(), "a;b") {
		t.Fatalf("multi-instance join missing:\n%s", d.CSV())
	}
}

func TestRowFirst(t *testing.T) {
	d := sample()
	r := d.Rows()[2]
	if _, ok := r.First("mysqld/datadir"); ok {
		t.Fatal("absent attr should report !ok")
	}
	v, ok := r.First("mysqld/user")
	if !ok || v != "mysql" {
		t.Fatalf("First = %q %v", v, ok)
	}
	if r.Instances("mysqld/user") == nil {
		t.Fatal("instances should be present")
	}
}

func TestSummary(t *testing.T) {
	d := sample()
	if !strings.Contains(d.Summary(), "3 attributes x 3 rows") {
		t.Fatalf("summary = %q", d.Summary())
	}
}

func TestDiscretizePropertyTransactionSize(t *testing.T) {
	// Property: each transaction's size is at most the row's total distinct
	// (attr,value) pairs, and item ids are always in range.
	f := func(vals []string) bool {
		d := New()
		r := d.NewRow("s")
		for i, v := range vals {
			if len(v) > 8 {
				v = v[:8]
			}
			d.Add(r, "attr"+string(rune('a'+i%5)), v)
		}
		disc := d.Discretize(nil)
		for _, txn := range disc.Transactions {
			for _, id := range txn {
				if id < 0 || id >= len(disc.Items) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
