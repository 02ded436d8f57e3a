package assemble

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/conftypes"
	"repro/internal/sysimage"
)

// mysqlImage builds an image with a well-formed MySQL configuration whose
// datadir is owned by the configured user.
func mysqlImage(id, datadir, user string) *sysimage.Image {
	im := sysimage.New(id)
	im.Users["root"] = &sysimage.User{Name: "root", UID: 0, GID: 0, IsAdmin: true}
	im.Users[user] = &sysimage.User{Name: user, UID: 27, GID: 27}
	im.Groups["root"] = &sysimage.Group{Name: "root", GID: 0}
	im.Groups[user] = &sysimage.Group{Name: user, GID: 27}
	im.Services = []sysimage.Service{{Name: "mysql", Port: 3306, Protocol: "tcp"}}
	im.AddDir(datadir, user, user, 0o750)
	im.AddRegular(datadir+"/ibdata1", user, user, 0o660, 4096)
	im.OS = sysimage.OSInfo{DistName: "centos", Version: "6.3", SELinux: "disabled", HostName: id, IPAddress: "10.0.0.5", FSType: "ext4"}
	im.SetConfig("mysql", "/etc/my.cnf",
		"[mysqld]\ndatadir = "+datadir+"\nuser = "+user+"\nport = 3306\nbind-address = 10.0.0.5\nmax_allowed_packet = 16M\n")
	return im
}

func TestAssembleTrainingTypesAndAugmentation(t *testing.T) {
	images := []*sysimage.Image{
		mysqlImage("a", "/var/lib/mysql", "mysql"),
		mysqlImage("b", "/data/mysql", "mysql"),
		mysqlImage("c", "/var/lib/mysql", "mysql"),
	}
	d, err := New().AssembleTraining(images)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Rows) != 3 {
		t.Fatalf("rows = %d", len(d.Rows))
	}
	attr, ok := d.Attr("mysql:mysqld/datadir")
	if !ok || attr.Type != conftypes.TypeFilePath {
		t.Fatalf("datadir attr = %+v ok=%v", attr, ok)
	}
	if a, _ := d.Attr("mysql:mysqld/user"); a.Type != conftypes.TypeUserName {
		t.Fatalf("user type = %s", a.Type)
	}
	if a, _ := d.Attr("mysql:mysqld/port"); a.Type != conftypes.TypePortNumber {
		t.Fatalf("port type = %s", a.Type)
	}
	if a, _ := d.Attr("mysql:mysqld/max_allowed_packet"); a.Type != conftypes.TypeSize {
		t.Fatalf("packet type = %s", a.Type)
	}
	// Augmented attributes exist and carry environment facts.
	owner, ok := d.Rows[0].First("mysql:mysqld/datadir.owner")
	if !ok || owner != "mysql" {
		t.Fatalf("datadir.owner = %q ok=%v", owner, ok)
	}
	kind, _ := d.Rows[0].First("mysql:mysqld/datadir.type")
	if kind != "dir" {
		t.Fatalf("datadir.type = %q", kind)
	}
	if a, _ := d.Attr("mysql:mysqld/datadir.owner"); !a.Augmented || a.Type != conftypes.TypeUserName {
		t.Fatalf("augmented attr meta = %+v", a)
	}
	// IP augmentation.
	local, ok := d.Rows[0].First("mysql:mysqld/bind-address.Local")
	if !ok || local != "true" {
		t.Fatalf("bind-address.Local = %q ok=%v", local, ok)
	}
	// Table 5b env attrs.
	if v, ok := d.Rows[0].First("OS.DistName"); !ok || v != "centos" {
		t.Fatalf("OS.DistName = %q ok=%v", v, ok)
	}
	// HW absent: no MemSize column value.
	if _, ok := d.Rows[0].First("MemSize"); ok {
		t.Fatal("MemSize must be absent for dormant images")
	}
}

func TestAssembleHardwarePresent(t *testing.T) {
	im := mysqlImage("hw", "/var/lib/mysql", "mysql")
	im.HW = sysimage.Hardware{Present: true, CPUThreads: 8, CPUFreqMHz: 2400, MemBytes: 16 << 30, DiskBytes: 100 << 30}
	d, err := New().AssembleTraining([]*sysimage.Image{im})
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := d.Rows[0].First("MemSize"); !ok || v != "16G" {
		t.Fatalf("MemSize = %q ok=%v", v, ok)
	}
	if a, _ := d.Attr("MemSize"); a.Type != conftypes.TypeSize || !a.Augmented {
		t.Fatalf("MemSize attr = %+v", a)
	}
	if v, _ := d.Rows[0].First("CPU.Threads"); v != "8" {
		t.Fatalf("CPU.Threads = %q", v)
	}
}

func TestAssembleTargetUsesTrainingTypes(t *testing.T) {
	training, err := New().AssembleTraining([]*sysimage.Image{
		mysqlImage("a", "/var/lib/mysql", "mysql"),
		mysqlImage("b", "/data/mysql", "mysql"),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Target has a broken datadir (a file, not a dir) — the attribute must
	// still be typed FilePath from training even though the target value
	// wouldn't verify.
	target := mysqlImage("t", "/var/lib/mysql", "mysql")
	target.AddRegular("/var/lib/mysql.bad", "mysql", "mysql", 0o644, 1)
	target.SetConfig("mysql", "/etc/my.cnf",
		"[mysqld]\ndatadir = /var/lib/mysql.bad\nuser = mysql\nport = 3306\nbind-address = 10.0.0.5\nmax_allowed_packet = 16M\n")
	a := New()
	td, err := a.AssembleTarget(target, training)
	if err != nil {
		t.Fatal(err)
	}
	if len(td.Rows) != 1 {
		t.Fatalf("target rows = %d", len(td.Rows))
	}
	attr, _ := td.Attr("mysql:mysqld/datadir")
	if attr.Type != conftypes.TypeFilePath {
		t.Fatalf("target datadir type = %s (must come from training)", attr.Type)
	}
	// The augmented .type should say "file" for the bad value.
	kind, ok := td.Rows[0].First("mysql:mysqld/datadir.type")
	if !ok || kind != "file" {
		t.Fatalf("datadir.type = %q ok=%v", kind, ok)
	}
}

func TestAssembleTargetUnseenAttr(t *testing.T) {
	training, _ := New().AssembleTraining([]*sysimage.Image{mysqlImage("a", "/var/lib/mysql", "mysql")})
	target := mysqlImage("t", "/var/lib/mysql", "mysql")
	target.SetConfig("mysql", "/etc/my.cnf", "[mysqld]\ndatadir = /var/lib/mysql\nuser = mysql\nbrand_new_opt = 42\n")
	td, err := New().AssembleTarget(target, training)
	if err != nil {
		t.Fatal(err)
	}
	attr, ok := td.Attr("mysql:mysqld/brand_new_opt")
	if !ok {
		t.Fatal("unseen attribute should be declared")
	}
	if attr.Type != conftypes.TypeNumber {
		t.Fatalf("unseen attr type = %s", attr.Type)
	}
}

func TestMultiArgEntriesBecomeArgColumns(t *testing.T) {
	im := sysimage.New("apache-1")
	im.Users["root"] = &sysimage.User{Name: "root", UID: 0, IsAdmin: true}
	im.Users["apache"] = &sysimage.User{Name: "apache", UID: 48, GID: 48}
	im.Groups["apache"] = &sysimage.Group{Name: "apache", GID: 48}
	im.AddDir("/etc/httpd", "root", "root", 0o755)
	im.AddRegular("/etc/httpd/modules/libphp5.so", "root", "root", 0o755, 10)
	im.SetConfig("apache", "/etc/httpd/conf/httpd.conf",
		"ServerRoot /etc/httpd\nLoadModule php5_module modules/libphp5.so\nUser apache\n")
	d, err := New().AssembleTraining([]*sysimage.Image{im})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := d.Attr("apache:LoadModule/arg1"); !ok {
		t.Fatal("LoadModule/arg1 missing")
	}
	a2, ok := d.Attr("apache:LoadModule/arg2")
	if !ok || a2.Type != conftypes.TypePartialFilePath {
		t.Fatalf("LoadModule/arg2 = %+v ok=%v", a2, ok)
	}
	sr, _ := d.Attr("apache:ServerRoot")
	if sr.Type != conftypes.TypeFilePath {
		t.Fatalf("ServerRoot type = %s", sr.Type)
	}
}

func TestFlagEntriesGetOnValue(t *testing.T) {
	im := mysqlImage("f", "/var/lib/mysql", "mysql")
	im.SetConfig("mysql", "/etc/my.cnf", "[mysqld]\nskip-networking\nuser = mysql\n")
	d, err := New().AssembleTraining([]*sysimage.Image{im})
	if err != nil {
		t.Fatal(err)
	}
	v, ok := d.Rows[0].First("mysql:mysqld/skip-networking")
	if !ok || v != "on" {
		t.Fatalf("flag value = %q ok=%v", v, ok)
	}
	if a, _ := d.Attr("mysql:mysqld/skip-networking"); a.Type != conftypes.TypeBoolean {
		t.Fatalf("flag type = %s", a.Type)
	}
}

func TestPatternValuesSkipAugmentation(t *testing.T) {
	im := mysqlImage("p", "/var/lib/mysql", "mysql")
	im.SetConfig("mysql", "/etc/my.cnf", "[mysqld]\ndatadir = /var/lib/mysql\nuser = mysql\nlog-bin = /var/log/mysql-bin.*\n")
	d, err := New().AssembleTraining([]*sysimage.Image{im})
	if err != nil {
		t.Fatal(err)
	}
	// Glob value should not get .owner etc.
	if _, ok := d.Rows[0].First("mysql:mysqld/log-bin.owner"); ok {
		t.Fatal("glob value must not be augmented")
	}
}

func TestParseErrorPropagates(t *testing.T) {
	im := mysqlImage("bad", "/var/lib/mysql", "mysql")
	im.SetConfig("mysql", "/etc/my.cnf", "[unterminated\n")
	if _, err := New().AssembleTraining([]*sysimage.Image{im}); err == nil {
		t.Fatal("parse error should propagate")
	}
	if _, err := New().AssembleTarget(im, nil); err == nil {
		t.Fatal("target parse error should propagate")
	}
}

func TestCustomAugmenterAndEnvAttr(t *testing.T) {
	a := New()
	a.AddAugmenter(conftypes.TypeUserName, Augmenter{
		Suffix: "shell",
		Type:   conftypes.TypeString,
		Compute: func(v string, im *sysimage.Image) (string, bool) {
			if u, ok := im.Users[v]; ok {
				return u.Shell, u.Shell != ""
			}
			return "", false
		},
	})
	a.AddEnvAttr(EnvAttr{
		Name: "Sys.Magic", Type: conftypes.TypeNumber,
		Compute: func(*sysimage.Image) (string, bool) { return "7", true },
	})
	im := mysqlImage("c", "/var/lib/mysql", "mysql")
	im.Users["mysql"].Shell = "/sbin/nologin"
	d, err := a.AssembleTraining([]*sysimage.Image{im})
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := d.Rows[0].First("mysql:mysqld/user.shell"); !ok || v != "/sbin/nologin" {
		t.Fatalf("custom augment = %q ok=%v", v, ok)
	}
	if v, _ := d.Rows[0].First("Sys.Magic"); v != "7" {
		t.Fatalf("custom env attr = %q", v)
	}
}

func TestWorldReadableAugment(t *testing.T) {
	im := mysqlImage("wr", "/var/lib/mysql", "mysql")
	im.AddRegular("/var/log/mysql.log", "mysql", "mysql", 0o644, 0)
	im.SetConfig("mysql", "/etc/my.cnf", "[mysqld]\ndatadir = /var/lib/mysql\nuser = mysql\nlog = /var/log/mysql.log\n")
	d, err := New().AssembleTraining([]*sysimage.Image{im})
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := d.Rows[0].First("mysql:mysqld/log.worldReadable"); !ok || v != "true" {
		t.Fatalf("worldReadable = %q ok=%v", v, ok)
	}
}

func TestCSVIntegration(t *testing.T) {
	d, err := New().AssembleTraining([]*sysimage.Image{mysqlImage("a", "/var/lib/mysql", "mysql")})
	if err != nil {
		t.Fatal(err)
	}
	csv := d.CSV()
	if !strings.Contains(csv, "mysql:mysqld/datadir") || !strings.Contains(csv, "/var/lib/mysql") {
		t.Fatal("csv should include assembled data")
	}
}

// TestPermissionAugmenterMatchesSprintf holds the permission augmenter's
// table to the formatting it replaced, for all 512 permission values and
// with the type and setuid bits above them set.
func TestPermissionAugmenterMatchesSprintf(t *testing.T) {
	var perm Augmenter
	for _, aug := range New().augmenters[conftypes.TypeFilePath] {
		if aug.Suffix == "permission" {
			perm = aug
		}
	}
	im := sysimage.New("perm")
	im.AddRegular("/probe", "root", "root", 0, 1)
	for m := uint32(0); m < 0o1000; m++ {
		for _, high := range []uint32{0, 0o4000, 0o170000} {
			im.Resolve("/probe").Mode = high | m
			got, ok := perm.Compute("/probe", im)
			if want := fmt.Sprintf("0%o", m); !ok || got != want {
				t.Fatalf("mode %o: permission = %q, %v; want %q", high|m, got, ok, want)
			}
		}
	}
}
