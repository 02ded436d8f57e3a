package sysimage

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestLoadFileMatchesLoadJSON pins the pooled-buffer reader against a
// plain decode of the same bytes, including across back-to-back calls
// that recycle the same buffer.
func TestLoadFileMatchesLoadJSON(t *testing.T) {
	dir := t.TempDir()
	a, b := testImage(), testImage()
	a.ID, b.ID = "img-a", "img-b"
	b.SetConfig("mysql", "/etc/my.cnf", "[mysqld]\nuser=mysql\n")
	if err := SaveDir(dir, []*Image{a, b}); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"img-a", "img-b", "img-a"} {
		path := filepath.Join(dir, id+".json")
		got, err := LoadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		want, err := LoadJSON(data)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("LoadFile(%s) differs from LoadJSON of the same bytes", id)
		}
	}
	if _, err := LoadFile(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("expected error for missing file")
	}
}
