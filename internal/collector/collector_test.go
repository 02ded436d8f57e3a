package collector

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/assemble"
	"repro/internal/dataset"
	"repro/internal/sysimage"
)

// buildTree creates an extracted-image-like tree in a temp dir.
func buildTree(t *testing.T) string {
	t.Helper()
	root := t.TempDir()
	mk := func(rel, content string, mode os.FileMode) {
		t.Helper()
		p := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(content), mode); err != nil {
			t.Fatal(err)
		}
	}
	uid := os.Getuid()
	gid := os.Getgid()
	passwd := "root:x:0:0:root:/root:/bin/bash\n" +
		"mysql:x:27:27:MySQL:/var/lib/mysql:/sbin/nologin\n" +
		"# a comment\n" +
		"me:x:" + itoa(uid) + ":" + itoa(gid) + ":Me:/home/me:/bin/bash\n" +
		"broken-line\n"
	group := "root:x:0:\nmysql:x:27:\nwww:x:48:mysql,me\nme:x:" + itoa(gid) + ":\nbad\n"
	services := "# services\nssh 22/tcp\nmysql 3306/tcp\nmalformed\nnoport x/tcp\n"
	osRelease := "ID=ubuntu\nVERSION_ID=\"12.04\"\nPRETTY_NAME=\"Ubuntu\"\n"

	mk("etc/passwd", passwd, 0o644)
	mk("etc/group", group, 0o644)
	mk("etc/services", services, 0o644)
	mk("etc/os-release", osRelease, 0o644)
	mk("etc/my.cnf", "[mysqld]\ndatadir = /var/lib/mysql\nuser = mysql\n", 0o644)
	mk("etc/my.cnf.d/extra.cnf", "[mysqld]\nmax_connections = 100\n", 0o644)
	mk("var/lib/mysql/ibdata1", "data", 0o660)
	mk("var/log/mysqld.log", "log", 0o640)
	if err := os.Symlink("/var/lib/mysql", filepath.Join(root, "data")); err != nil {
		t.Fatal(err)
	}
	// Directories the collector must skip.
	if err := os.MkdirAll(filepath.Join(root, "proc/self"), 0o755); err != nil {
		t.Fatal(err)
	}
	return root
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var digits []byte
	for n > 0 {
		digits = append([]byte{byte('0' + n%10)}, digits...)
		n /= 10
	}
	return string(digits)
}

func collectTree(t *testing.T) *sysimage.Image {
	t.Helper()
	img, err := Collect(buildTree(t), "collected-1", Options{
		Apps:         map[string]string{"mysql": "etc/my.cnf"},
		ExtraConfigs: map[string][]string{"mysql": {"etc/my.cnf.d/extra.cnf"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func TestCollectAccounts(t *testing.T) {
	img := collectTree(t)
	if !img.UserExists("mysql") || !img.UserExists("root") || !img.UserExists("me") {
		t.Fatal("users missing")
	}
	if !img.IsAdmin("root") || img.IsAdmin("mysql") {
		t.Fatal("admin flags wrong")
	}
	if !img.GroupExists("www") || !img.UserInGroup("mysql", "www") {
		t.Fatal("groups/membership missing")
	}
}

func TestCollectServicesAndOS(t *testing.T) {
	img := collectTree(t)
	if !img.PortRegistered(3306) || !img.PortRegistered(22) {
		t.Fatal("services missing")
	}
	if img.PortRegistered(9999) {
		t.Fatal("phantom service")
	}
	if img.OS.DistName != "ubuntu" || img.OS.Version != "12.04" {
		t.Fatalf("OS facts = %+v", img.OS)
	}
}

func TestCollectFileSystem(t *testing.T) {
	img := collectTree(t)
	if !img.IsDir("/var/lib/mysql") {
		t.Fatal("dir missing")
	}
	fm := img.Lookup("/var/log/mysqld.log")
	if fm == nil || fm.Kind != sysimage.KindFile {
		t.Fatalf("log meta = %+v", fm)
	}
	if fm.Mode != 0o640 {
		t.Fatalf("log mode = %o", fm.Mode)
	}
	// Ownership resolves via the image's passwd: files created by the
	// current user map to the "me" account (or root when running as uid 0).
	if fm.Owner != "me" && fm.Owner != "root" {
		t.Fatalf("owner = %q", fm.Owner)
	}
	link := img.Lookup("/data")
	if link == nil || link.Kind != sysimage.KindSymlink || link.Target != "/var/lib/mysql" {
		t.Fatalf("symlink = %+v", link)
	}
	if img.Exists("/proc/self") {
		t.Fatal("proc must be skipped")
	}
}

func TestCollectConfigs(t *testing.T) {
	img := collectTree(t)
	cfgs := img.ConfigsFor("mysql")
	if len(cfgs) != 2 {
		t.Fatalf("configs = %d", len(cfgs))
	}
	if cfgs[0].Path != "/etc/my.cnf" || cfgs[1].Path != "/etc/my.cnf.d/extra.cnf" {
		t.Fatalf("config paths = %s, %s", cfgs[0].Path, cfgs[1].Path)
	}
}

func TestCollectErrors(t *testing.T) {
	if _, err := Collect("/no/such/root", "x", Options{}); err == nil {
		t.Fatal("missing root should error")
	}
	f := filepath.Join(t.TempDir(), "file")
	os.WriteFile(f, []byte("x"), 0o644)
	if _, err := Collect(f, "x", Options{}); err == nil {
		t.Fatal("non-directory root should error")
	}
	root := buildTree(t)
	if _, err := Collect(root, "x", Options{Apps: map[string]string{"mysql": "etc/missing.cnf"}}); err == nil {
		t.Fatal("missing app config should error")
	}
	if _, err := Collect(root, "x", Options{
		Apps:         map[string]string{"mysql": "etc/my.cnf"},
		ExtraConfigs: map[string][]string{"mysql": {"etc/missing.d/x.cnf"}},
	}); err == nil {
		t.Fatal("missing fragment should error")
	}
}

func TestCollectMaxFiles(t *testing.T) {
	root := buildTree(t)
	img, err := Collect(root, "bounded", Options{MaxFiles: 3})
	if err != nil {
		t.Fatal(err)
	}
	// AddFile creates implicit parents, so the count can exceed the bound
	// slightly, but the walk must have stopped early.
	if len(img.Files) > 10 {
		t.Fatalf("bound ignored: %d files", len(img.Files))
	}
}

func TestCollectMinimalTree(t *testing.T) {
	// A tree with no passwd/group/services/os-release still collects.
	root := t.TempDir()
	os.MkdirAll(filepath.Join(root, "srv"), 0o755)
	img, err := Collect(root, "minimal", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !img.IsDir("/srv") {
		t.Fatal("tree not collected")
	}
}

// TestCollectedImageThroughPipeline runs a collected image through the
// full assembler, proving the collector's output is pipeline-ready.
func TestCollectedImageThroughPipeline(t *testing.T) {
	img := collectTree(t)
	// Assemble as a (tiny) training set.
	ds, err := assembleOne(img)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := ds.Rows()[0].First("mysql:mysqld/datadir"); !ok || v != "/var/lib/mysql" {
		t.Fatalf("datadir = %q ok=%v", v, ok)
	}
	if _, ok := ds.Rows()[0].First("mysql:mysqld/max_connections"); !ok {
		t.Fatal("fragment entry missing")
	}
	if v, ok := ds.Rows()[0].First("mysql:mysqld/datadir.type"); !ok || v != "dir" {
		t.Fatalf("augmented type = %q ok=%v", v, ok)
	}
}

// assembleOne runs the standard assembler over a single collected image.
func assembleOne(img *sysimage.Image) (*dataset.Dataset, error) {
	return assemble.New().AssembleTraining([]*sysimage.Image{img})
}
