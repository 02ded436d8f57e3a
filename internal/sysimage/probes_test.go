package sysimage

import (
	"path"
	"sort"
	"strings"
	"testing"
)

// The reference probes the production ones replaced, kept as oracles:
// they sort and allocate, the production probes answer in one pass over
// Files.

// oracleNormalize is normalize as first written: path.Clean for every
// non-empty path.
func oracleNormalize(p string) string {
	if p == "" {
		return p
	}
	return path.Clean(p)
}

// Children returns the direct children of a directory, sorted by path.
func (im *Image) Children(dir string) []*FileMeta {
	dir = oracleNormalize(dir)
	var out []*FileMeta
	for p, fm := range im.Files {
		if p != dir && path.Dir(p) == dir {
			out = append(out, fm)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

// FileList returns every path in the image, sorted.
func (im *Image) FileList() []string {
	out := make([]string, 0, len(im.Files))
	for p := range im.Files {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// UserList returns every account name, sorted.
func (im *Image) UserList() []string {
	out := make([]string, 0, len(im.Users))
	for n := range im.Users {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// GroupList returns every group name, sorted.
func (im *Image) GroupList() []string {
	out := make([]string, 0, len(im.Groups))
	for n := range im.Groups {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// oracleHasChildKind is HasSubdir/HasSymlink as first written: scan the
// sorted children.
func oracleHasChildKind(im *Image, dir string, kind FileKind) bool {
	for _, c := range im.Children(dir) {
		if c.Kind == kind {
			return true
		}
	}
	return false
}

// oracleHasPathSuffix is the PartialFilePath/FileName verifier as first
// written: a suffix test over the sorted file list.
func oracleHasPathSuffix(im *Image, rel string) bool {
	suffix := "/" + rel
	for _, p := range im.FileList() {
		if strings.HasSuffix(p, suffix) {
			return true
		}
	}
	return false
}

// probeImage stores keys as sent, unclean ones included, the way LoadJSON
// does: Files is filled directly, not through AddFile.
func probeImage(keys []string) *Image {
	im := New("probe")
	kinds := []FileKind{KindDir, KindFile, KindSymlink}
	for i, k := range keys {
		im.Files[k] = &FileMeta{Path: k, Kind: kinds[i%len(kinds)]}
	}
	return im
}

// probePaths splits fuzz input into paths on ','.
func probePaths(s string) []string {
	return strings.Split(s, ",")
}

// FuzzImageProbes holds normalize, HasSubdir, HasSymlink and HasPathSuffix
// to their oracles — path.Clean, Children and FileList — over images whose
// keys include "//", "/./", "..", trailing slashes and relative paths.
func FuzzImageProbes(f *testing.F) {
	f.Add("/etc,/etc/httpd,/etc/httpd/conf,/etc/link", "/etc", "httpd/conf")
	f.Add("/var//lib,/var/lib/,/var/./lib/x,/var/lib/../lib/y", "/var/lib", "lib/x")
	f.Add("a,a/b,./a/c,a/../d,../e", "a", "b")
	f.Add("/,/x,//y,/./z", "/", "")
	f.Add("/srv/www/,/srv/www/a/,/srv/www/b", "/srv/www/", "www/b")
	f.Add("/a/b/c/..,/a/b,/a/./b/d", "/a/b/", "d")
	f.Add("/opt,/opt/app,/opt/app/lib.so", "/opt/app/.", "lib.so")
	f.Add("/home/u,/home/u/.ssh,/home/u/.ssh/keys,.x/y", "/home/u/.ssh", ".ssh/keys")
	f.Fuzz(func(t *testing.T, keys, dir, rel string) {
		for _, p := range append(probePaths(keys), dir, rel) {
			if got, want := normalize(p), oracleNormalize(p); got != want {
				t.Fatalf("normalize(%q) = %q, path.Clean %q", p, got, want)
			}
		}
		im := probeImage(probePaths(keys))
		for _, d := range append(probePaths(keys), dir) {
			if got, want := im.HasSubdir(d), oracleHasChildKind(im, d, KindDir); got != want {
				t.Fatalf("HasSubdir(%q) = %v, oracle %v over %q", d, got, want, keys)
			}
			if got, want := im.HasSymlink(d), oracleHasChildKind(im, d, KindSymlink); got != want {
				t.Fatalf("HasSymlink(%q) = %v, oracle %v over %q", d, got, want, keys)
			}
		}
		if got, want := im.HasPathSuffix(rel), oracleHasPathSuffix(im, rel); got != want {
			t.Fatalf("HasPathSuffix(%q) = %v, oracle %v over %q", rel, got, want, keys)
		}
	})
}

// TestPrimaryGroupSharedGID pins the tie-break of groups sharing a GID:
// the lowest name, on every call, however the map iterates.
func TestPrimaryGroupSharedGID(t *testing.T) {
	im := New("shared-gid")
	im.Users["svc"] = &User{Name: "svc", UID: 500, GID: 500}
	for _, g := range []string{"wheel", "svc", "staff", "adm"} {
		im.Groups[g] = &Group{Name: g, GID: 500}
	}
	im.Groups["other"] = &Group{Name: "other", GID: 501}
	for i := 0; i < 1000; i++ {
		if got := im.PrimaryGroup("svc"); got != "adm" {
			t.Fatalf("call %d: PrimaryGroup = %q, want the lowest name %q", i, got, "adm")
		}
	}
}
